"""Latex document preparation (paper §3.7.2, evaluated in §4.2).

Latex generates a DVI file from multiple input files.  The Spectra port
is a front end plus a service that runs Latex as a child process.  It
has **one fidelity** (there is no "lower quality" typesetting) and two
plans: ``local`` and ``remote``.

Two properties drive the paper's Figures 5–7:

* resource usage depends heavily on the *document* — the front end
  passes the top-level input file's name so Spectra parameterizes its
  predictions per document (the data-specific LRU models of §3.4);
* data consistency matters — input files are edited on the client, so
  running remotely may first require reintegrating buffered
  modifications to the file servers (§3.5), at volume granularity.

Each document lives in its own Coda volume (``/latex-<doc>/...``), which
is exactly what makes the paper's large-document reintegrate case cheap:
the dirty small-document volume is not needed, so no reintegration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Generator, Optional, Tuple

from ..coda import CodaClient, FileServer
from ..core import OperationSpec, SpectraClient, local_plan, remote_plan
from ..odyssey import FidelitySpec
from ..rpc import OpContext, OpResult, Service


@dataclass(frozen=True)
class Document:
    """One Latex document: its inputs, outputs, and size."""

    name: str
    pages: int
    #: (filename, bytes) inputs, rooted in the document's volume
    inputs: Tuple[Tuple[str, int], ...]
    dvi_bytes: int
    aux_bytes: int = 8 * 1024
    #: per-document cost multiplier beyond page count (figure density,
    #: macro complexity) — the reason the paper's data-specific models
    #: beat a generic pages-only regression (§3.4)
    complexity: float = 1.0

    @property
    def volume(self) -> str:
        return f"latex-{self.name}"

    # Every operation on a document reads and writes the same paths, and
    # its file-access records and usage samples keep them: build each
    # path string once per document, not once per call.

    @cached_property
    def main_input(self) -> str:
        """Path of the top-level input file (the data-object key)."""
        return self.input_paths[0][0]

    @cached_property
    def input_paths(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((f"/{self.volume}/{name}", size)
                     for name, size in self.inputs)

    @cached_property
    def output_paths(self) -> Tuple[Tuple[str, int], ...]:
        return (
            (f"/{self.volume}/{self.name}.dvi", self.dvi_bytes),
            (f"/{self.volume}/{self.name}.aux", self.aux_bytes),
        )


#: The paper's two evaluation documents: 14 and 123 pages.  Input sizes
#: are figure-heavy so cold server caches cost whole seconds (Figure 5's
#: file-cache scenario).
SMALL_DOCUMENT = Document(
    name="small",
    pages=14,
    inputs=(
        ("main.tex", 70 * 1024),       # the file the reintegrate scenario edits
        ("macros.sty", 30 * 1024),
        ("figures.eps", 1_900 * 1024),
    ),
    dvi_bytes=120 * 1024,
)

LARGE_DOCUMENT = Document(
    name="large",
    pages=123,
    inputs=(
        ("main.tex", 400 * 1024),
        ("macros.sty", 30 * 1024),
        ("figures.eps", 2_600 * 1024),
    ),
    dvi_bytes=900 * 1024,
    complexity=1.15,
)

#: Latex documents addressable from a scenario's app options, by name.
DOCUMENTS = {"small": SMALL_DOCUMENT, "large": LARGE_DOCUMENT}


@dataclass(frozen=True)
class LatexModel:
    """Cycle cost model: typesetting scales with page count."""

    base_cycles: float = 1e8
    cycles_per_page: float = 1.2e8
    #: typesetting is integer/branchy work — no FP penalty anywhere
    fp_fraction: float = 0.0

    def cycles(self, pages: int, complexity: float = 1.0) -> float:
        return (self.base_cycles + self.cycles_per_page * pages) * complexity


class LatexService(Service):
    """Runs Latex over a document's Coda files.

    One optype, ``format``; the document is identified by params.  The
    service reads every input through Coda (cache misses fetch from the
    file servers) and writes the DVI/aux outputs back through Coda.
    """

    name = "latex"

    def __init__(self, documents: Dict[str, Document],
                 model: Optional[LatexModel] = None):
        self.documents = dict(documents)
        self.model = model if model is not None else LatexModel()

    def perform(self, ctx: OpContext) -> Generator:
        if ctx.optype != "format":
            raise ValueError(f"latex: unknown optype {ctx.optype!r}")
        doc = self.documents[ctx.params["document"]]
        for path, _size in doc.input_paths:
            yield from ctx.access(path)
        yield from ctx.compute(self.model.cycles(doc.pages, doc.complexity),
                               fp_fraction=self.model.fp_fraction)
        if ctx.coda is not None:
            for path, size in doc.output_paths:
                yield from ctx.coda.modify(path, size)
        return OpResult(outdata_bytes=256,
                        result=f"<dvi for {doc.name}: {doc.pages} pages>")


def make_latex_spec() -> OperationSpec:
    """Latex registration: one fidelity, two plans, document-keyed."""
    return OperationSpec(
        name="latex-format",
        plans=(local_plan("run latex on the client"),
               remote_plan("run latex on a compute server")),
        fidelity=FidelitySpec.fixed(),
        input_params=("pages",),
        data_parameterized=True,
        # latency desirability: the paper's default 1/T
    )


class LatexApplication:
    """The Latex front end: selects a location, then runs the service."""

    def __init__(self, client: SpectraClient, documents: Dict[str, Document],
                 use_data_objects: bool = True):
        self.client = client
        self.documents = dict(documents)
        self.spec = make_latex_spec()
        self._registered = False
        #: ablation knob: when False, operations carry no data-object
        #: name, disabling the per-document models of §3.4
        self.use_data_objects = use_data_objects

    def register(self) -> Generator:
        result = yield from self.client.register_fidelity(self.spec)
        self._registered = True
        return result

    def format(self, document_name: str, force=None) -> Generator:
        """Process: typeset one document; returns the OperationReport."""
        if not self._registered:
            raise RuntimeError("call register() before format()")
        doc = self.documents[document_name]
        params = {"pages": float(doc.pages)}
        data_object = doc.main_input if self.use_data_objects else None
        handle = yield from self.client.begin_fidelity_op(
            self.spec.name, params=params,
            data_object=data_object,  # "the name of the top-level input file"
            force=force,
        )
        rpc_params = {"document": document_name}
        if handle.plan_name == "local":
            yield from self.client.do_local_op(
                handle, "latex", "format", indata_bytes=0, params=rpc_params,
            )
        else:
            yield from self.client.do_remote_op(
                handle, "latex", "format", indata_bytes=0, params=rpc_params,
            )
        report = yield from self.client.end_fidelity_op(handle)
        return report


def install_document(fileserver: FileServer, document: Document) -> None:
    """Create a document's files on the Coda file server."""
    for path, size in document.input_paths:
        if not fileserver.exists(path):
            fileserver.create_file(path, size)
    for path, size in document.output_paths:
        if not fileserver.exists(path):
            fileserver.create_file(path, size)


def warm_document(coda: CodaClient, document: Document,
                  outputs: bool = False) -> None:
    """Populate a machine's cache with a document's inputs (and outputs)."""
    for path, _size in document.input_paths:
        coda.warm(path)
    if outputs:
        for path, _size in document.output_paths:
            coda.warm(path)
