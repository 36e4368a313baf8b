"""Finding records and the per-module analysis context.

A :class:`Finding` is one violation at one source location.  Its
:meth:`~Finding.fingerprint` deliberately excludes the line number, so a
baselined finding keeps matching after unrelated edits move it around --
only the rule (at its current version), the file, and the offending
source text identify it.  The rule *version* is part of the identity on
purpose: tightening a rule bumps its ``version``, which changes every
fingerprint it emits and therefore invalidates its baseline entries --
a stale baseline can never absorb a finding produced by a stricter
check than the one that recorded it.

A :class:`ModuleContext` builds its node lists once per module: every
rule and the project summary read the shared :attr:`~ModuleContext.nodes`
and :attr:`~ModuleContext.scoped` lists instead of re-walking the AST.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""
    rule_version: int = 1

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline.

        Two findings share a fingerprint iff they are the same rule *at
        the same rule version*, in the same file, on identical
        (whitespace-normalized) source text.  Duplicates are legal; the
        baseline counts them.
        """
        normalized = " ".join(self.snippet.split())
        payload = f"{self.rule}:v{self.rule_version}|{self.path}|{normalized}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        """``path:line:col`` -- the clickable prefix of a report line."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "rule_version": self.rule_version,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


@dataclass
class ModuleContext:
    """Everything a rule needs to analyse one module."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, in :func:`ast.walk` order."""
        return list(ast.walk(self.tree))

    @cached_property
    def scoped(self) -> list[tuple[ast.AST, tuple[str, ...]]]:
        """``(node, enclosing_function_names)`` pairs, depth-first.

        The stack lists the enclosing ``def`` names outermost first; a
        ``def`` node itself carries the stack it is defined in.  The
        module root is not included.
        """
        pairs: list[tuple[ast.AST, tuple[str, ...]]] = []

        def visit(node: ast.AST, stack: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                pairs.append((child, stack))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, stack + (child.name,))
                else:
                    visit(child, stack)

        visit(self.tree, ())
        return pairs

    def snippet(self, node: ast.AST) -> str:
        """The stripped source line a node starts on (best effort)."""
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a Finding anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            snippet=self.snippet(node),
        )
