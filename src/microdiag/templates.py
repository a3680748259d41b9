"""Log template mining and per-template count series.

A fixed-depth routing scheme in the style of online log parsers: lines are
tokenized on whitespace, tokens containing digits (numbers, ids, IPs) are
masked to the wildcard, and lines are routed by token count plus the first
DEPTH masked tokens. Within a routing group, a line joins the most similar
existing template when positional similarity reaches SIM_THRESHOLD
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

from .types import BUCKET_MS

__all__ = ["TemplateTable", "mine_templates", "template_series", "WILDCARD"]

WILDCARD = "<*>"
DEPTH = 3
SIM_THRESHOLD = 0.5


def _tokenize(line: str) -> tuple[str, ...]:
    tokens = line.split()
    return tuple(WILDCARD if any(c.isdigit() for c in tok) else tok for tok in tokens)


def _route_key(tokens: tuple[str, ...]) -> tuple:
    return (len(tokens), tokens[:DEPTH])


@dataclass
class TemplateTable:
    """Mined templates, routed by `_route_key`."""

    templates: list[tuple[str, ...]]
    _routes: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._routes = {}
        for tid, tpl in enumerate(self.templates):
            self._routes.setdefault(_route_key(tpl), []).append(tid)

    @property
    def n_templates(self) -> int:
        return len(self.templates)

    @property
    def unk_id(self) -> int:
        """Reserved id for lines matching no mined template."""
        return len(self.templates)

    def _closest(self, tokens: tuple[str, ...]) -> int:
        """The most similar template of the line's route group (the first
        among equals) if its similarity reaches SIM_THRESHOLD, else -1."""
        best_id, best_sim = -1, -1.0
        for tid in self._routes.get(_route_key(tokens), ()):
            # equal length, guaranteed by routing on token count
            tpl = self.templates[tid]
            sim = sum(x == y for x, y in zip(tpl, tokens)) / len(tokens)
            if sim > best_sim:
                best_id, best_sim = tid, sim
        return best_id if best_sim >= SIM_THRESHOLD else -1

    def match(self, line: str) -> int:
        """Template id for a line, or unk_id when nothing clears the threshold."""
        tokens = _tokenize(line)
        tid = self._closest(tokens) if tokens else -1
        return self.unk_id if tid < 0 else tid

    def to_json(self) -> str:
        payload = {
            "depth": DEPTH,
            "sim_threshold": SIM_THRESHOLD,
            "templates": [list(t) for t in self.templates],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def mine_templates(lines) -> TemplateTable:
    """Build a template table from raw lines in input order."""
    table = TemplateTable(templates=[])
    for line in lines:
        tokens = _tokenize(line)
        if not tokens:
            continue
        tid = table._closest(tokens)
        if tid >= 0:
            tpl = table.templates[tid]
            if tpl != tokens:
                table.templates[tid] = tuple(
                    a if a == b else WILDCARD for a, b in zip(tpl, tokens)
                )
        else:
            table.templates.append(tokens)
            table._routes.setdefault(_route_key(tokens), []).append(len(table.templates) - 1)
    return table


def template_series(
    table: TemplateTable, logs: list[list[tuple[int, str]]], n_buckets: int
) -> np.ndarray:
    """Count series of shape (len(logs), n_templates + 1, n_buckets), one
    block per node's (t_ms, text) lines, one column per BUCKET_MS from t=0.

    Row table.unk_id counts unmatched lines; empty buckets are explicit
    zeros. Total counts equal the number of lines, which must all fall in
    [0, n_buckets * BUCKET_MS).
    """
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    n_rows = table.n_templates + 1
    out = np.zeros((len(logs), n_rows * n_buckets))
    for counts, lines in zip(out, logs):
        times = np.array([t for t, _ in lines], dtype=np.int64)
        outside = (times < 0) | (times >= n_buckets * BUCKET_MS)
        if outside.any():
            raise ValueError(f"log line at {times[outside][0]} ms outside series range "
                             f"[0, {n_buckets * BUCKET_MS})")
        tids = np.array([table.match(text) for _, text in lines], dtype=np.int64)
        counts += np.bincount(tids * n_buckets + times // BUCKET_MS,
                              minlength=n_rows * n_buckets)
    return out.reshape(len(logs), n_rows, n_buckets)
