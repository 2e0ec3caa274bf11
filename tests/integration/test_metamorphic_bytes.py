"""Doubling every bandwidth and every byte size changes nothing but bytes.

Placement decisions depend only on *relative* rates (paper §2).  So a
world whose media and dedicated links all carry twice the bytes a
second, with every byte size doubled too, must move each message in the
same time: the same decisions, latencies, energies, counters and fault
journal, with every byte count exactly doubled.  The sizes are the
applications' payloads and files (speech, Latex, Pangloss; the null
operation sends headers only), the RPC header
(:data:`~repro.rpc.messages.HEADER_BYTES`), a server status reply, the
Coda change-log record overhead, its validation RPC and its cache
capacity.  Scaling by two
is exact in binary floating point, so every canned scenario's smoke
report must match bit for bit, its ``bytes_transferred`` doubled.  The
transform is seen to reach the operations: each measured ``net:bytes``
usage doubles, exactly, and every other usage keeps its value.

One exception, named here rather than hidden in a tolerance: speech
payloads are ``int(bytes_per_s * utterance_s)``, whole bytes truncated
from a rate times a drawn length, and truncation does not commute with
doubling (``int(2x)`` is ``2 * int(x) + 1`` when ``x`` has a fraction of
at least one half).  Doubling the rates instead moved a byte in the
speech operations of all three speech scenarios (``chaos-speech``,
``degraded-commute``, ``walk-in-office``), and with it every later
time.  So the speech module's truncation is doubled: its two rates stay
and each truncated count is doubled.
"""

import builtins
import dataclasses

import pytest

from repro.apps import latex, pangloss, speech
from repro.coda import client as coda_client
from repro.coda.reintegration import ChangeLog
from repro.monitors.remote import ServerStatus
from repro.rpc import messages
from repro.scenarios import SCENARIOS, canned_spec, run_scenario

#: cost model -> its fields that count bytes (speech's two rates are
#: doubled after truncation, below)
BYTE_FIELDS = {
    speech.SpeechModel: ("result_bytes",),
    pangloss.PanglossModel: ("sentence_bytes_per_word",
                             "candidates_bytes_per_word", "result_bytes"),
}


def doubled_spec(spec):
    """*spec* with every medium's and dedicated link's bandwidth doubled."""
    return dataclasses.replace(
        spec,
        media=tuple(dataclasses.replace(medium,
                                        bandwidth_bps=2 * medium.bandwidth_bps)
                    for medium in spec.media),
        links=tuple(link if link.bandwidth_bps is None
                    else dataclasses.replace(link,
                                             bandwidth_bps=2 * link.bandwidth_bps)
                    for link in spec.links))


def doubled_document(document):
    return dataclasses.replace(
        document,
        inputs=tuple((name, 2 * size) for name, size in document.inputs),
        dvi_bytes=2 * document.dvi_bytes,
        aux_bytes=2 * document.aux_bytes)


def doubled_model(cls):
    def build():
        model = cls()
        return dataclasses.replace(model, **{
            name: 2 * getattr(model, name) for name in BYTE_FIELDS[cls]})
    return build


def double_every_byte_size(monkeypatch):
    monkeypatch.setattr(messages, "HEADER_BYTES", 2 * messages.HEADER_BYTES)
    monkeypatch.setattr(ChangeLog, "RECORD_OVERHEAD_BYTES",
                        2 * ChangeLog.RECORD_OVERHEAD_BYTES)
    monkeypatch.setattr(coda_client, "_VALIDATE_RPC_BYTES",
                        2 * coda_client._VALIDATE_RPC_BYTES)
    cache = coda_client.FileCache
    monkeypatch.setattr(coda_client, "FileCache",
                        lambda capacity_bytes: cache(2 * capacity_bytes))
    status_bytes = ServerStatus.wire_bytes.fget
    monkeypatch.setattr(ServerStatus, "wire_bytes",
                        property(lambda status: 2 * status_bytes(status)))

    for module, attribute in ((speech, "SpeechModel"),
                              (pangloss, "PanglossModel")):
        monkeypatch.setattr(module, attribute,
                            doubled_model(getattr(module, attribute)))
    # The named exception: speech's truncated payloads double after the
    # truncation (see the module docstring).
    monkeypatch.setattr(speech, "int", lambda value: 2 * builtins.int(value),
                        raising=False)
    monkeypatch.setattr(speech, "FULL_LM_BYTES", 2 * speech.FULL_LM_BYTES)
    monkeypatch.setattr(speech, "REDUCED_LM_BYTES",
                        2 * speech.REDUCED_LM_BYTES)
    monkeypatch.setattr(latex, "DOCUMENTS", {
        name: doubled_document(document)
        for name, document in latex.DOCUMENTS.items()})
    # LatexService's reply size is a literal; its one OpResult doubles it.
    op_result = latex.OpResult
    monkeypatch.setattr(latex, "OpResult", lambda outdata_bytes, **fields:
                        op_result(outdata_bytes=2 * outdata_bytes, **fields))
    monkeypatch.setattr(pangloss, "ENGINE_FILES", {
        engine: (path, 2 * size)
        for engine, (path, size) in pangloss.ENGINE_FILES.items()})


def with_bytes_doubled(data):
    """*data* with every ``bytes_transferred`` field doubled, at any depth."""
    if isinstance(data, dict):
        return {key: 2 * value if key == "bytes_transferred"
                else with_bytes_doubled(value)
                for key, value in data.items()}
    if isinstance(data, list):
        return [with_bytes_doubled(value) for value in data]
    return data


def run_with_usage(spec):
    usages = []
    report = run_scenario(spec, profile="smoke",
                          on_op=lambda op: usages.append(op.usage))
    return report, usages


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_doubled_bytes_keep_every_time(name, monkeypatch):
    plain, plain_usages = run_with_usage(canned_spec(name))
    double_every_byte_size(monkeypatch)
    doubled, doubled_usages = run_with_usage(doubled_spec(canned_spec(name)))

    assert doubled.to_dict() == with_bytes_doubled(plain.to_dict())
    assert doubled.energy_j == plain.energy_j
    assert plain.to_dict()["totals"]["bytes_transferred"] > 0
    assert any(usage["net:bytes"] > 0 for usage in plain_usages)
    assert doubled_usages == [
        {key: 2 * value if key == "net:bytes" else value
         for key, value in usage.items()}
        for usage in plain_usages]
