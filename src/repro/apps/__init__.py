"""The paper's three applications, the video extension and the null
overhead probe.  Each name loads its module on first access, so a run
loads only the applications its spec names (:mod:`repro._lazy`)."""

from .._lazy import lazy_exports

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, globals(), {
    "latex": (
        "LARGE_DOCUMENT",
        "SMALL_DOCUMENT",
        "Document",
        "LatexApplication",
        "LatexModel",
        "LatexService",
        "install_document",
        "make_latex_spec",
        "warm_document",
    ),
    "null": ("NullApplication", "make_null_spec"),
    "pangloss": (
        "COMPONENTS",
        "ENGINE_FIDELITY",
        "ENGINE_FILES",
        "ENGINES",
        "PanglossApplication",
        "PanglossModel",
        "PanglossPlan",
        "PanglossService",
        "active_engines",
        "install_pangloss_files",
        "make_pangloss_spec",
        "pangloss_fidelity_desirability",
        "pangloss_fidelity_spec",
        "pangloss_plans",
        "warm_pangloss_files",
    ),
    "speech": (
        "FULL_LM_BYTES",
        "FULL_LM_PATH",
        "REDUCED_LM_BYTES",
        "REDUCED_LM_PATH",
        "JanusService",
        "SpeechApplication",
        "SpeechModel",
        "hybrid_plan",
        "make_speech_spec",
        "speech_fidelity_desirability",
    ),
    "video": (
        "FULL_FRAME_RATE",
        "SOURCE_BYTES",
        "SOURCE_PATH",
        "VideoApplication",
        "VideoModel",
        "VideoService",
        "install_video_files",
        "make_video_spec",
        "video_fidelity_desirability",
    ),
    "workloads": ("LatexWorkload", "SentenceWorkload", "SpeechWorkload"),
})

__all__ = _lazy_names
