"""Plain-text (UTF-8) hypergraph files.

One edge per line as whitespace-separated vertex labels; ``#`` starts a
comment; blank lines are ignored.  Labels are arbitrary strings and are
normalized to dense vertex indices (numeric order when every label is an
integer, lexicographic otherwise); the label map is kept so reports can
speak the caller's language.
"""

from __future__ import annotations

from pathlib import Path

from .hypergraph import Hypergraph, build


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_hypergraph(text: str) -> tuple[Hypergraph, tuple[str, ...]]:
    """Parse the text format; returns the hypergraph and its label map.

    ``labels[v]`` is the original label of vertex ``v``.
    """
    edges: list[tuple[int, list[str]]] = []
    seen: dict[frozenset[str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        tokens = content.split()
        if len(set(tokens)) != len(tokens):
            raise ParseError(f"repeated vertex label in edge: {content!r}", lineno)
        key = frozenset(tokens)
        if key in seen:
            raise ParseError(f"duplicate edge (first seen on line {seen[key]})", lineno)
        seen[key] = lineno
        edges.append((lineno, tokens))
    if not edges:
        raise ParseError("no edges found")
    all_labels = {tok for _, tokens in edges for tok in tokens}
    try:
        labels = sorted(all_labels, key=int)
    except ValueError:
        labels = sorted(all_labels)
    index = {lab: i for i, lab in enumerate(labels)}
    hg = build(len(labels), [[index[t] for t in tokens] for _, tokens in edges])
    return hg, tuple(labels)


def format_hypergraph(hg: Hypergraph) -> str:
    """Render a hypergraph in the text format, vertices written 1-based.

    This matches the convention of the shipped example files.
    """
    return "\n".join(" ".join(str(v + 1) for v in e) for e in hg.edges) + "\n"


def load(path: str | Path) -> tuple[Hypergraph, tuple[str, ...]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_hypergraph(text)
