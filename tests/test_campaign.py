"""Campaign runner: grid enumeration, caching, resume, CLI wiring."""

import json

import pytest

from repro.cli import main
from repro.experiments import RESULT_SCHEMA_VERSION, campaign
from repro.experiments.campaign import (
    CampaignError,
    CampaignSpec,
    run_campaign,
)

def _spec(seeds=(1, 2), settle=(0.0, 2.0)):
    return CampaignSpec.build(
        "figure5", seeds=list(seeds), sweep={"settle_seconds": list(settle)}
    )


# -- spec validation ------------------------------------------------------


def test_unknown_experiment_rejected():
    with pytest.raises(CampaignError, match="unknown experiment"):
        CampaignSpec.build("nope")


def test_unknown_sweep_parameter_rejected():
    with pytest.raises(CampaignError, match="no parameter"):
        CampaignSpec.build("figure5", sweep={"bogus": [1]})


def test_seeds_require_declared_seed_parameter():
    with pytest.raises(CampaignError, match="no 'seed' parameter"):
        CampaignSpec.build("table1", seeds=[1, 2])


def test_seed_cannot_be_given_twice():
    with pytest.raises(CampaignError, match="not both"):
        CampaignSpec.build("figure5", seeds=[1], sweep={"seed": [2]})


def test_empty_sweep_axis_rejected():
    with pytest.raises(CampaignError, match="no values"):
        CampaignSpec.build("figure5", sweep={"settle_seconds": []})


def test_cell_enumeration_is_deterministic():
    cells = _spec().cells()
    assert [c.params_dict for c in cells] == [
        {"seed": 1, "settle_seconds": 0.0},
        {"seed": 1, "settle_seconds": 2.0},
        {"seed": 2, "settle_seconds": 0.0},
        {"seed": 2, "settle_seconds": 2.0},
    ]
    # content addresses are distinct and stable
    digests = [c.digest() for c in cells]
    assert len(set(digests)) == 4
    assert digests == [c.digest() for c in _spec().cells()]


# -- caching and resume ---------------------------------------------------


def test_second_run_served_entirely_from_cache(tmp_path):
    spec = _spec()
    first = run_campaign(spec, cache_dir=tmp_path)
    assert (first.total, first.computed, first.cached) == (4, 4, 0)
    second = run_campaign(spec, cache_dir=tmp_path)
    assert (second.total, second.computed, second.cached) == (4, 0, 4)
    assert [o.result for o in first.outcomes] == [
        o.result for o in second.outcomes
    ]
    assert [o.digest for o in first.outcomes] == [
        o.digest for o in second.outcomes
    ]


def test_resume_recomputes_only_missing_cells(tmp_path):
    spec = _spec()
    run_campaign(spec, cache_dir=tmp_path)
    entries = sorted((tmp_path / "figure5").glob("*.json"))
    assert len(entries) == 4
    entries[1].unlink()
    resumed = run_campaign(spec, cache_dir=tmp_path)
    assert (resumed.computed, resumed.cached) == (1, 3)


def test_torn_cache_entry_recomputed(tmp_path):
    spec = _spec()
    run_campaign(spec, cache_dir=tmp_path)
    entry = sorted((tmp_path / "figure5").glob("*.json"))[0]
    entry.write_text('{"truncated')  # simulate a crash mid-write
    resumed = run_campaign(spec, cache_dir=tmp_path)
    assert (resumed.computed, resumed.cached) == (1, 3)


def test_interrupted_campaign_resumes_where_it_stopped(tmp_path):
    spec = _spec()
    finished = []

    def interrupt_after_two(outcome):
        finished.append(outcome)
        if len(finished) == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec, cache_dir=tmp_path, progress=interrupt_after_two)
    # the two finished cells are durably cached...
    assert len(list((tmp_path / "figure5").glob("*.json"))) == 2
    # ...and the rerun computes only the remaining two
    resumed = run_campaign(spec, cache_dir=tmp_path)
    assert (resumed.total, resumed.computed, resumed.cached) == (4, 2, 2)


def test_refresh_recomputes_despite_cache(tmp_path):
    spec = _spec(seeds=(3,), settle=(0.0,))
    run_campaign(spec, cache_dir=tmp_path)
    refreshed = run_campaign(spec, cache_dir=tmp_path, refresh=True)
    assert (refreshed.computed, refreshed.cached) == (1, 0)


def test_cell_cached_under_previous_result_schema_is_recomputed(tmp_path, monkeypatch):
    """A cell cached before a result-layout change (the ``obs`` block,
    say) is recomputed, never served in the old shape."""
    spec = _spec(seeds=(3,), settle=(0.0,))
    with monkeypatch.context() as patched:
        patched.setattr(campaign, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION - 1)
        stale = run_campaign(spec, cache_dir=tmp_path)
    assert (stale.computed, stale.cached) == (1, 0)
    fresh = run_campaign(spec, cache_dir=tmp_path)
    assert (fresh.computed, fresh.cached) == (1, 0)
    assert fresh.outcomes[0].digest != stale.outcomes[0].digest
    assert run_campaign(spec, cache_dir=tmp_path).cached == 1


def test_worker_pool_matches_inline_results(tmp_path):
    spec = _spec()
    inline = run_campaign(spec, cache_dir=tmp_path / "inline")
    pooled = run_campaign(spec, cache_dir=tmp_path / "pool", workers=2)
    assert pooled.computed == 4
    assert [o.result for o in inline.outcomes] == [
        o.result for o in pooled.outcomes
    ]


# -- CLI ------------------------------------------------------------------


def test_cli_campaign_runs_and_reports_cache_hits(tmp_path, capsys):
    argv = [
        "campaign", "figure5",
        "--seeds", "1,2",
        "--set", "settle_seconds=0.0,2.0",
        "--cache-dir", str(tmp_path),
        "--json",
    ]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert (first["total"], first["computed"], first["cached"]) == (4, 4, 0)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert (second["total"], second["computed"], second["cached"]) == (4, 0, 4)
    assert [c["digest"] for c in first["cells"]] == [
        c["digest"] for c in second["cells"]
    ]


def test_cli_campaign_rejects_bad_set(tmp_path, capsys):
    assert main([
        "campaign", "figure5", "--set", "garbage",
        "--cache-dir", str(tmp_path),
    ]) == 2
    assert "expected name=" in capsys.readouterr().err


def test_cli_campaign_rejects_unknown_parameter(tmp_path, capsys):
    assert main([
        "campaign", "figure5", "--set", "bogus=1",
        "--cache-dir", str(tmp_path),
    ]) == 2
    assert "campaign error" in capsys.readouterr().err
