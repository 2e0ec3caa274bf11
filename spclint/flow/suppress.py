"""SPC105 — the suppression audit: dead waivers are findings.

An inline ``# spectra: noqa[CODE]`` is a reviewed, justified exception
to a rule.  Exceptions rot: the flagged code gets refactored away, the
waiver stays, and a later (possibly unrelated, possibly real) finding
on that line is silently swallowed by a comment nobody remembers.  This
pass runs *last* in the whole-program pack and checks every waiver
against the full pre-suppression finding stream of the run: a waiver
that names a rule which produced no finding on its line — or a blanket
``noqa`` covering a line with no findings at all — is itself reported.

Judgments are only made about rules that actually ran: a waiver for a
rule a test's ``select`` left out is left alone (it may well suppress
something in the full sweep), and waivers naming this rule's own code
are skipped (waiving the audit is a contradiction, not a dead waiver).
Unknown rule codes in a waiver are always findings — they suppress
nothing under any selection.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ..core import RULE_REGISTRY, ProjectRule, Violation, register_rule
from ..suppressions import ALL_RULES


@register_rule
class UnusedSuppressionRule(ProjectRule):
    code = "SPC105"
    name = "unused-suppression"
    description = ("# spectra: noqa[CODE] waivers that suppress no "
                   "finding of this run are dead and must go")

    def check_project(self, project) -> Iterator[Violation]:
        active = {rule.code for rule in project.rules}
        any_judgeable = bool(active - {self.code})
        #: (path, line) -> rule codes that fired there, pre-suppression
        fired: Dict[Tuple[str, int], Set[str]] = {}
        for violation in project.raw_findings:
            fired.setdefault((violation.path, violation.line),
                             set()).add(violation.rule)

        for source in project.sources():
            if not self.applies_to(source):
                continue
            for line in sorted(source.suppressions):
                codes = source.suppressions[line]
                at_line = fired.get((source.path, line), set())
                if codes is ALL_RULES or "*" in codes:
                    # A blanket waiver is only judged when some other
                    # rule ran at all — otherwise "no findings" is a
                    # fact about the selection, not about the waiver.
                    if any_judgeable and not at_line:
                        yield Violation(
                            rule=self.code, path=source.path,
                            line=line, col=0,
                            message=("blanket 'spectra: noqa' suppresses "
                                     "nothing on this line — remove it "
                                     "(and prefer naming the rule)"),
                        )
                    continue
                for waived in sorted(codes):
                    if waived == self.code:
                        continue
                    if waived not in RULE_REGISTRY:
                        yield Violation(
                            rule=self.code, path=source.path,
                            line=line, col=0,
                            message=(f"waiver names unknown rule code "
                                     f"{waived} — it can never "
                                     f"suppress anything"),
                        )
                        continue
                    if waived not in active:
                        continue
                    if waived not in at_line:
                        yield Violation(
                            rule=self.code, path=source.path,
                            line=line, col=0,
                            message=(f"noqa[{waived}] suppresses nothing: "
                                     f"{waived} produced no finding on "
                                     f"this line — stale waiver"),
                        )
