"""The one load generator across deployments: eviction accounting over
every hop, the broker tier in front of a single server, and the exit
status both loadgen commands derive from the report."""

import pytest

from repro.service.loadgen import run_loadgen


def test_loadgen_subscribers_keep_up_with_an_unpaced_replay():
    # tick_interval=0: the replay must still yield every step, or the
    # subscriber writers never run and every subscriber is evicted.
    report = run_loadgen(sources=4, queries=40, items=40, duration=290,
                         subscribers=4)
    assert report["slow_consumer_evictions"] == 0
    assert report["notifies_received"] > 0
    assert report["qab_violations"] == 0


def test_loadgen_through_brokers_in_front_of_one_server():
    report = run_loadgen(sources=2, queries=6, items=20, duration=15,
                         subscribers=3, brokers=2, seed=2)
    assert report["qab_violations"] == 0
    assert report["slow_consumer_evictions"] == 0
    assert report["broker_stats"]["subscribers"] == 4    # 3 + the auditor
    server_stats = report["server_stats"]["server"]
    assert server_stats["refreshes"] == report["refreshes_sent"]
    assert "shards" not in report


def test_loadgen_rejects_in_process_options_over_tcp():
    with pytest.raises(ValueError):
        run_loadgen(host="127.0.0.1", port=1, shards=2)


def test_loadgen_rejects_a_journal_without_shards(tmp_path):
    with pytest.raises(ValueError):
        run_loadgen(journal_dir=str(tmp_path))


@pytest.mark.parametrize("argv", [
    ["cluster", "loadgen", "--shards", "2"],
    ["loadgen", "--in-process", "--output", ""],
])
def test_loadgen_commands_print_the_coordinator_line(capsys, argv):
    # No broker tier: the auditor's stats are the coordinator's own (a
    # router's carry ``cluster: True``), and the report must still print.
    from repro import cli

    code = cli.main(argv + ["--sources", "2", "--queries", "6",
                            "--items", "20", "--duration", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recomputations" in out
    assert "evictions            0" in out


@pytest.mark.parametrize("argv", [
    ["loadgen", "--in-process", "--output", ""],
    ["cluster", "loadgen"],
])
@pytest.mark.parametrize("evictions, violations, code",
                         [(0, 0, 0), (2, 0, 1), (0, 1, 1)])
def test_loadgen_commands_fail_on_evictions(monkeypatch, capsys, argv,
                                            evictions, violations, code):
    from repro import cli
    from repro.service import loadgen

    report = {"transport": "loopback", "brokers": 0, "sources": 1,
              "subscribers": 1, "queries": 1, "items": 1, "ticks": 1,
              "ticks_per_second": 1.0, "refreshes_sent": 1,
              "refreshes_filtered": 0, "notifies_received": 1,
              "notify_latency_seconds": {}, "latency_samples": 0,
              "server_stats": {"cluster": True, "recomputations": 0},
              "coordinator_stats": {"cluster": True, "recomputations": 0,
                                    "refreshes": 1},
              "slow_consumer_evictions": evictions,
              "qab_violations": violations}
    monkeypatch.setattr(loadgen, "run_loadgen", lambda **_: dict(report))
    assert cli.main(argv) == code
    assert f"evictions            {evictions}" in capsys.readouterr().out
