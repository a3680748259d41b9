"""Log template mining: merge rules, determinism, total assignment."""

import json

import numpy as np
import pytest

from microdiag.templates import WILDCARD, TemplateTable, mine_templates, template_series

from helpers import log_array


def test_ip_variants_merge_into_one_template():
    # "connect to 10.0.0.1 failed" vs "...10.0.0.2...": after masking, the
    # lines agree token for token, well above the 0.5 similarity threshold
    table = mine_templates([
        "connect to 10.0.0.1 failed",
        "connect to 10.0.0.2 failed",
    ])
    assert table.n_templates == 1
    tid = table.match("connect to 172.16.0.9 failed")
    assert tid == 0


def test_similar_lines_in_one_route_group_merge():
    # routing keys on token count plus the first 3 masked tokens, so these
    # share a group; 4 of 5 tokens agree = 0.8 >= 0.5 and the differing
    # position becomes a wildcard slot
    table = mine_templates([
        "worker pool queue exhausted alpha",
        "worker pool queue exhausted beta",
    ])
    assert table.n_templates == 1
    assert table.templates[0] == ("worker", "pool", "queue", "exhausted", WILDCARD)
    assert table.match("worker pool queue exhausted gamma") == 0


def test_lines_with_different_route_keys_stay_separate():
    table = mine_templates(["disk write error on volume", "user login accepted now"])
    assert table.n_templates == 2
    assert table.match("disk write error on volume") != table.match("user login accepted now")


def test_dissimilar_lines_in_one_route_group_stay_separate():
    # same route key (7 tokens, shared first 3) but only 3/7 similarity
    table = mine_templates([
        "cache sync done for shard one yesterday",
        "cache sync done but duplicate keys remained",
    ])
    assert table.n_templates == 2


def test_numeric_tokens_are_premasked():
    table = mine_templates(["served 10 requests", "served 999 requests"])
    assert table.n_templates == 1


def test_unseen_structure_maps_to_unk():
    table = mine_templates(["alpha beta gamma"])
    assert table.match("completely different token count here") == table.unk_id
    assert table.unk_id == table.n_templates


def test_mining_is_deterministic_and_totally_assigning():
    # 10k lines from 20 shapes with random parameters: every line must land
    # on some mined template (never UNK), and reruns must agree exactly
    shapes = [
        "request {} completed in {} ms", "GET /api/v1/orders/{} returned 200",
        "user {} authenticated from 10.0.{}.{}", "cache hit ratio {} percent",
        "connection pool size {} of {}", "scheduled job {} finished successfully",
        "health check passed in {} ms", "published event {} to topic orders",
        "consumed message offset {} from partition {}", "db query took {} ms rows {}",
        "gc pause {} ms heap {} mb", "tls handshake with 10.1.{}.{} completed",
        "retry budget remaining {} for upstream", "config reloaded version {}",
        "session {} expired after {} s", "thread pool active {} queued {}",
        "rate limiter allowed {} denied {}", "dns lookup resolved to 10.9.{}.{}",
        "circuit breaker state closed failures {}", "wrote {} bytes to audit log",
    ]
    rng = np.random.default_rng(99)
    lines = []
    for _ in range(10_000):
        shape = shapes[int(rng.integers(len(shapes)))]
        args = [str(int(rng.integers(1, 100000))) for _ in range(shape.count("{}"))]
        lines.append(shape.format(*args))

    table1 = mine_templates(lines)
    table2 = mine_templates(list(lines))
    assert table1.to_json() == table2.to_json()
    assert table1.n_templates <= len(shapes) + 5  # no template explosion
    for line in lines[:2000]:
        assert table1.match(line) < table1.n_templates  # total, never UNK


def test_json_round_trip_preserves_matching():
    table = mine_templates([
        "connect to 10.0.0.1 failed",
        "user 42 logged in",
        "job 7 done",
    ])
    d = json.loads(table.to_json())
    # the routing parameters are fixed, and recorded beside the templates
    assert (d["depth"], d["sim_threshold"]) == (3, 0.5)
    back = TemplateTable(templates=[tuple(t) for t in d["templates"]])
    assert back.n_templates == table.n_templates
    for line in ("connect to 10.0.0.3 failed", "user 9 logged in", "job 1 done", "???"):
        assert back.match(line) == table.match(line)


def test_template_series_counts_and_conservation():
    table = mine_templates(["tick 1", "boom happened now"])
    logs = log_array([(0, 0, "tick 5"), (500, 0, "tick 6"), (1500, 0, "boom happened now"),
                      (2500, 1, "tick 7")])
    series = template_series(table, logs, n_nodes=3, n_buckets=3)
    # one block per node; rows: one per template plus the UNK row; columns: 3 buckets
    assert series.shape == (3, table.n_templates + 1, 3)
    a, b, c = series
    tick, boom = table.match("tick 9"), table.match("boom happened now")
    assert a[tick].tolist() == [2, 0, 0]
    assert a[boom].tolist() == [0, 1, 0]
    assert b[tick].tolist() == [0, 0, 1]
    # conservation: every line lands in exactly one cell
    assert a.sum() == 3 and b.sum() == 1 and c.sum() == 0


def test_template_series_rejects_lines_outside_range():
    table = mine_templates(["tick 1"])
    logs = log_array([(0, 0, "tick 1"), (5000, 0, "tick 1")])
    with pytest.raises(ValueError, match="outside series range"):
        template_series(table, logs, n_nodes=1, n_buckets=3)


def test_wildcard_token_is_stable():
    assert WILDCARD == "<*>"
