"""Log template mining and per-template count series.

A fixed-depth routing scheme in the style of online log parsers: lines are
tokenized on whitespace, tokens containing digits (numbers, ids, IPs) are
masked to the wildcard, and lines are routed by token count plus the first
`depth` masked tokens. Within a routing group, a line joins the most similar
existing template when positional similarity reaches `sim_threshold`
(wildcard positions compare by plain string equality); differing positions
become wildcards. Otherwise the line founds a new template.

Mining is deterministic in input order: re-mining the same corpus yields an
identical table, and every line maps to exactly one template id. Lines seen
after mining that match nothing fall into the reserved UNK template.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TemplateTable", "mine_templates", "template_series", "WILDCARD"]

WILDCARD = "<*>"


def _tokenize(line: str) -> tuple[str, ...]:
    tokens = line.split()
    return tuple(WILDCARD if any(c.isdigit() for c in tok) else tok for tok in tokens)


def _similarity(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    # pre: equal length (guaranteed by routing on token count)
    return sum(x == y for x, y in zip(a, b)) / len(a)


@dataclass
class TemplateTable:
    """Mined templates plus the routing parameters used to build them."""

    templates: list[tuple[str, ...]]
    depth: int = 3
    sim_threshold: float = 0.5
    _routes: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.sim_threshold < 1.0):
            raise ValueError("sim_threshold must be in (0, 1)")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        self._routes = {}
        for tid, tpl in enumerate(self.templates):
            self._routes.setdefault(self._route_key(tpl), []).append(tid)

    def _route_key(self, tokens: tuple[str, ...]) -> tuple:
        return (len(tokens), tokens[: self.depth])

    @property
    def n_templates(self) -> int:
        return len(self.templates)

    @property
    def unk_id(self) -> int:
        """Reserved id for lines matching no mined template."""
        return len(self.templates)

    def match(self, line: str) -> int:
        """Template id for a line, or unk_id when nothing clears the threshold."""
        tokens = _tokenize(line)
        if not tokens:
            return self.unk_id
        best_id, best_sim = self.unk_id, -1.0
        for tid in self._routes.get(self._route_key(tokens), ()):
            sim = _similarity(self.templates[tid], tokens)
            if sim > best_sim:
                best_id, best_sim = tid, sim
        if best_sim >= self.sim_threshold:
            return best_id
        return self.unk_id

    def to_json(self) -> str:
        payload = {
            "depth": self.depth,
            "sim_threshold": self.sim_threshold,
            "templates": [list(t) for t in self.templates],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def mine_templates(lines, depth: int = 3, sim_threshold: float = 0.5) -> TemplateTable:
    """Build a template table from raw lines in input order."""
    table = TemplateTable(templates=[], depth=depth, sim_threshold=sim_threshold)
    for line in lines:
        tokens = _tokenize(line)
        if not tokens:
            continue
        key = table._route_key(tokens)
        group = table._routes.get(key)
        best_id, best_sim = -1, -1.0
        if group:
            for tid in group:
                sim = _similarity(table.templates[tid], tokens)
                if sim > best_sim:
                    best_id, best_sim = tid, sim
        if best_sim >= sim_threshold:
            tpl = table.templates[best_id]
            if tpl != tokens:
                table.templates[best_id] = tuple(
                    a if a == b else WILDCARD for a, b in zip(tpl, tokens)
                )
        else:
            table.templates.append(tokens)
            table._routes.setdefault(key, []).append(len(table.templates) - 1)
    return table


def template_series(
    table: TemplateTable,
    logs: dict[str, list[tuple[int, str]]],
    bucket_ms: int,
    start_ms: int,
    end_ms: int,
) -> dict[str, np.ndarray]:
    """Per-node count series of shape (n_templates + 1, n_buckets).

    Row table.unk_id counts unmatched lines; empty buckets are explicit
    zeros. Total counts equal the number of lines, which must all fall in
    [start_ms, end_ms).
    """
    if bucket_ms <= 0:
        raise ValueError("bucket_ms must be positive")
    if end_ms <= start_ms:
        raise ValueError("end_ms must exceed start_ms")
    n_buckets = -(-(end_ms - start_ms) // bucket_ms)
    out = {}
    for node, lines in logs.items():
        counts = np.zeros((table.n_templates + 1, n_buckets))
        for t_ms, text in lines:
            if not (start_ms <= t_ms < end_ms):
                raise ValueError(
                    f"log line at {t_ms} ms outside series range [{start_ms}, {end_ms})"
                )
            counts[table.match(text), (t_ms - start_ms) // bucket_ms] += 1.0
        out[node] = counts
    return out
