"""SPC105 — the suppression audit: dead waivers are findings.

An inline ``# spectra: noqa[CODE]`` is a reviewed, justified exception
to a rule.  Exceptions rot: the flagged code gets refactored away, the
waiver stays, and a later (possibly unrelated, possibly real) finding
on that line is silently swallowed by a comment nobody remembers.  The
engine runs this audit on each file *after* the other rules, with that
file's pre-suppression findings: a waiver that names a rule which
produced no finding on its line — or a blanket ``noqa`` covering a line
with no findings at all — is itself reported.

Judgments are only made about rules that actually ran: a waiver for a
rule a test's ``select`` left out is left alone (it may well suppress
something in the full sweep), and waivers naming this rule's own code
are skipped (waiving the audit is a contradiction, not a dead waiver).
Unknown rule codes in a waiver are always findings — they suppress
nothing under any selection.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Set

from ..core import RULE_REGISTRY, Rule, SourceFile, Violation, register_rule
from ..suppressions import ALL_RULES


@register_rule
class UnusedSuppressionRule(Rule):
    code = "SPC105"
    name = "unused-suppression"
    description = ("# spectra: noqa[CODE] waivers that suppress no "
                   "finding of this run are dead and must go")

    def check(self, source: SourceFile) -> Iterator[Violation]:
        # The audit needs the other rules' findings on the file; the
        # engine runs it through :meth:`audit` once they are in.
        return iter(())

    def audit(self, source: SourceFile, findings: Iterable[Violation],
              active: Set[str]) -> Iterator[Violation]:
        """Dead waivers in *source*, given its pre-suppression
        *findings* from the rules whose codes are *active*."""
        any_judgeable = bool(active - {self.code})
        #: line -> rule codes that fired there, pre-suppression
        fired: Dict[int, Set[str]] = {}
        for violation in findings:
            fired.setdefault(violation.line, set()).add(violation.rule)

        for line in sorted(source.suppressions):
            codes = source.suppressions[line]
            at_line = fired.get(line, set())
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
