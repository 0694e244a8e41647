"""Tests for the persistent run ledger (repro.store).

Covers the satellite requirements of the persistence subsystem: JSONL
round-trips of every record kind, atomicity under a killed writer
(truncated final line tolerated, anything worse refused), and resume
parity — an interrupted-then-resumed campaign must be bit-identical to
a cold serial run and to a ``jobs=2`` run.
"""

import dataclasses
import json

import pytest

from repro.apps import get_application
from repro.costs.measure import CostMeasurement, FencingStrategy
from repro.errors import (
    LedgerConflictError,
    LedgerCorruptError,
    LedgerError,
    ReproError,
)
from repro.hardening.insertion import InsertionResult
from repro.litmus.results import LitmusResult
from repro.parallel import CellShard, ParallelConfig, plan, run_units
from repro.reporting.experiments import open_ledger, run_experiment
from repro.scale import SMOKE
from repro.store import (
    RunLedger,
    RunRecord,
    campaign_cell_key,
    campaign_cells,
    campaign_shard_key,
    content_key,
    cost_key,
    cost_measurements,
    decode,
    insertion_key,
    insertion_results,
    litmus_key,
    litmus_results,
    stress_token,
)
from repro.store import records as store_records
from repro.stress.strategies import (
    FixedLocationStress,
    NoStress,
    TunedStress,
)
from repro.testing.campaign import CampaignCell, run_campaign
from repro.tuning import shipped_params

TINY = dataclasses.replace(SMOKE, campaign_runs=6)

LITMUS = LitmusResult(
    test="MP", distance=64, weak=7, executions=200, location=(0, 64),
    backend="engine",
)
CELL = CampaignCell(
    chip="K20", app="cbe-dot", environment="sys-str+", errors=3,
    timeouts=1, runs=24,
)
SHARD = CellShard(cell=0, start=4, stop=8, errors=2, timeouts=0)
INSERTION = InsertionResult(
    chip="Titan", app="cbe-ht", initial_fences=5,
    reduced=frozenset({"a", "b"}), iterations_used=64, check_runs=321,
    wall_seconds=1.5, converged=False,
)
COST = CostMeasurement(
    chip="K20", app="cbe-dot", strategy=FencingStrategy.CONSERVATIVE,
    runtime_ms=1.25, energy_j=None, runs=30, discarded=2,
)


class TestContentKeys:
    def test_key_fields_in_order(self):
        key = content_key("campaign", "K20", "cbe-dot", "sys-str+",
                          "r24", 7, "engine")
        assert key == "campaign:K20:cbe-dot:sys-str+:r24:s7:engine"

    def test_keys_sanitise_separator_and_spaces(self):
        key = content_key("cost", "K20", "x", "no fences", "r1", 0)
        assert " " not in key and key.count(":") == 6

    def test_distinct_coordinates_distinct_keys(self):
        keys = {
            campaign_cell_key(chip, app, env, runs, seed)
            for chip in ("K20", "Titan")
            for app in ("cbe-dot", "cbe-ht")
            for env in ("sys-str+", "no-str-")
            for runs in (10, 20)
            for seed in (0, 1)
        }
        assert len(keys) == 32

    def test_shard_key_includes_range(self):
        a = campaign_shard_key("K20", "x", "e", 24, 0, 0, 12)
        b = campaign_shard_key("K20", "x", "e", 24, 0, 12, 24)
        assert a != b

    def test_stress_tokens_distinguish_strategies(self):
        tokens = {
            stress_token(NoStress()),
            stress_token(FixedLocationStress((0, 64), ("st", "ld"))),
            stress_token(TunedStress(shipped_params("K20"))),
            stress_token(TunedStress(shipped_params("Titan"))),
        }
        assert len(tokens) == 4

    def test_litmus_key_distinguishes_backend_and_randomise(self):
        base = dict(chip="K20", test="MP", stress="no-str", distance=64,
                    executions=100, seed=0)
        assert litmus_key(**base) != litmus_key(**base, backend="engine")
        assert litmus_key(**base) != litmus_key(**base, randomise=True)


class TestBackendKeying:
    """direct/engine/vector results of one test never collide, and a
    resume never satisfies one backend's work with another's records."""

    _COORDS = dict(chip="K20", test="MP", stress="no-str", distance=64,
                   executions=100, seed=0)

    def test_three_backends_three_keys(self):
        keys = {
            litmus_key(**self._COORDS, backend=b)
            for b in ("direct", "engine", "vector")
        }
        assert len(keys) == 3

    def test_ledger_lookup_isolated_per_backend(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "ledger")
        vector_key = litmus_key(**self._COORDS, backend="vector")
        result = dataclasses.replace(LITMUS, backend="vector")
        ledger.append(
            store_records.encode_litmus(
                vector_key, result, chip="K20", seed=0
            )
        )
        reopened = RunLedger.open(tmp_path / "ledger")
        assert reopened.get(vector_key) is not None
        for other in ("direct", "engine"):
            assert reopened.get(
                litmus_key(**self._COORDS, backend=other)
            ) is None

    def test_decode_preserves_backend_field(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "ledger")
        key = litmus_key(**self._COORDS, backend="vector")
        result = dataclasses.replace(LITMUS, backend="vector")
        ledger.append(store_records.encode_litmus(key, result))
        decoded = decode(RunLedger.open(tmp_path / "ledger").get(key))
        assert decoded.backend == "vector"
        assert decoded == result

    def test_survey_resume_never_crosses_backends(self, tmp_path):
        # A completed vector survey must not satisfy a direct survey's
        # resume: the direct run appends its own records under its own
        # keys instead of reusing the vector ones.
        kwargs = dict(
            scale=TINY, seed=0, chips=("K20",), tests=("MP", "SB")
        )
        run_experiment(
            "survey", out=str(tmp_path / "ledger"),
            backend="vector", **kwargs,
        )
        after_vector = len(RunLedger.open(tmp_path / "ledger"))
        assert after_vector > 0
        run_experiment(
            "survey", resume=str(tmp_path / "ledger"),
            out=str(tmp_path / "ledger"), backend="direct", **kwargs,
        )
        after_direct = len(RunLedger.open(tmp_path / "ledger"))
        assert after_direct == 2 * after_vector

    def test_survey_resume_reuses_same_backend(self, tmp_path):
        kwargs = dict(
            scale=TINY, seed=0, chips=("K20",), tests=("MP",)
        )
        first = run_experiment(
            "survey", out=str(tmp_path / "ledger"),
            backend="vector", **kwargs,
        )
        size = len(RunLedger.open(tmp_path / "ledger"))
        second = run_experiment(
            "survey", resume=str(tmp_path / "ledger"),
            backend="vector", **kwargs,
        )
        assert second == first
        assert len(RunLedger.open(tmp_path / "ledger")) == size


class TestRoundTrip:
    def _ledger(self, tmp_path):
        return RunLedger.create(tmp_path / "ledger")

    def test_litmus_round_trip(self, tmp_path):
        ledger = self._ledger(tmp_path)
        key = litmus_key("K20", "MP", "no-str", 64, 200, 0, "engine")
        ledger.append(store_records.encode_litmus(key, LITMUS))
        reopened = RunLedger.open(tmp_path / "ledger")
        assert decode(reopened.get(key)) == LITMUS

    def test_litmus_outcomes_stay_out_of_the_record(self, tmp_path):
        # A result run with outcomes on writes exactly today's payload;
        # the histogram and incomplete count never reach the ledger.
        recorded = dataclasses.replace(
            LITMUS,
            outcomes={((("r1", 1), ("r2", 0)), (("x", 1), ("y", 1))): 3},
            incomplete=1,
        )
        key = litmus_key("K20", "MP", "no-str", 64, 200, 0, "engine")
        record = store_records.encode_litmus(key, recorded, "K20", 0)
        assert set(record.payload) == {
            "chip", "seed", "test", "distance", "weak", "executions",
            "location", "backend",
        }
        assert record == store_records.encode_litmus(key, LITMUS, "K20", 0)
        ledger = self._ledger(tmp_path)
        ledger.append(record)
        assert decode(RunLedger.open(ledger.root).get(key)) == LITMUS

    def test_campaign_cell_round_trip(self, tmp_path):
        ledger = self._ledger(tmp_path)
        key = campaign_cell_key("K20", "cbe-dot", "sys-str+", 24, 0)
        ledger.append(store_records.encode_campaign_cell(key, CELL))
        assert decode(RunLedger.open(ledger.root).get(key)) == CELL

    def test_campaign_shard_round_trip(self, tmp_path):
        ledger = self._ledger(tmp_path)
        key = campaign_shard_key("K20", "cbe-dot", "sys-str+", 24, 0, 4, 8)
        ledger.append(
            store_records.encode_campaign_shard(
                key, "K20", "cbe-dot", "sys-str+", 24, 0, SHARD
            )
        )
        record = RunLedger.open(ledger.root).get(key)
        # Shards re-home onto the resuming run's grid index.
        assert store_records.decode_campaign_shard(record, cell=3) == \
            dataclasses.replace(SHARD, cell=3)

    def test_insertion_round_trip(self, tmp_path):
        ledger = self._ledger(tmp_path)
        key = insertion_key("Titan", "cbe-ht", 40, 32, 4, 0)
        ledger.append(store_records.encode_insertion(key, INSERTION))
        assert decode(RunLedger.open(ledger.root).get(key)) == INSERTION

    def test_cost_round_trip(self, tmp_path):
        ledger = self._ledger(tmp_path)
        key = cost_key("K20", "cbe-dot", "CONSERVATIVE", 30, 0)
        ledger.append(store_records.encode_cost(key, COST))
        assert decode(RunLedger.open(ledger.root).get(key)) == COST

    def test_domain_queries(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.append(
            store_records.encode_litmus(
                litmus_key("K20", "MP", "no-str", 64, 200, 0), LITMUS
            ),
            store_records.encode_campaign_cell(
                campaign_cell_key("K20", "cbe-dot", "sys-str+", 24, 0),
                CELL,
            ),
            store_records.encode_insertion(
                insertion_key("Titan", "cbe-ht", 40, 32, 4, 0), INSERTION
            ),
            store_records.encode_cost(
                cost_key("K20", "cbe-dot", "CONSERVATIVE", 30, 0), COST
            ),
        )
        assert litmus_results(ledger) == [LITMUS]
        assert campaign_cells(ledger) == [CELL]
        assert insertion_results(ledger) == [INSERTION]
        assert cost_measurements(ledger) == [COST]
        assert campaign_cells(ledger, chip="none") == []

    def test_litmus_payload_filters_on_chip_and_seed(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.append(
            store_records.encode_litmus(
                litmus_key("K20", "MP", "no-str", 64, 200, 0), LITMUS,
                chip="K20", seed=0,
            ),
            store_records.encode_litmus(
                litmus_key("Titan", "MP", "no-str", 64, 200, 3), LITMUS,
                chip="Titan", seed=3,
            ),
        )
        assert len(litmus_results(ledger)) == 2
        assert len(litmus_results(ledger, chip="K20")) == 1
        assert len(litmus_results(ledger, chip="Titan", seed=3)) == 1
        assert litmus_results(ledger, chip="C2075") == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode(RunRecord(key="k", kind="mystery", payload={}))


class TestLedgerDurability:
    def test_create_then_open(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led", meta={"note": "x"})
        assert RunLedger.open(tmp_path / "led").manifest["note"] == "x"

    def test_create_refuses_existing(self, tmp_path):
        RunLedger.create(tmp_path / "led")
        with pytest.raises(LedgerError):
            RunLedger.create(tmp_path / "led")

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger.open(tmp_path / "absent")

    def test_open_or_create_roundtrips(self, tmp_path):
        first = RunLedger.open_or_create(tmp_path / "led")
        first.append(
            store_records.encode_campaign_cell(
                campaign_cell_key("K20", "a", "e", 5, 0), CELL
            )
        )
        second = RunLedger.open_or_create(tmp_path / "led")
        assert len(second) == 1

    def test_ledger_error_is_repro_error(self, tmp_path):
        with pytest.raises(ReproError):
            RunLedger.open(tmp_path / "absent")

    def test_identical_duplicate_merges_idempotently(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        key = campaign_cell_key("K20", "a", "e", 5, 0)
        ledger.append(store_records.encode_campaign_cell(key, CELL))
        segments_before = len(list((tmp_path / "led").glob("seg-*.jsonl")))
        # Re-appending the same record (a reassigned lease racing its
        # original holder, a re-run experiment) is a no-op.
        ledger.append(store_records.encode_campaign_cell(key, CELL))
        assert len(ledger) == 1
        segments_after = len(list((tmp_path / "led").glob("seg-*.jsonl")))
        assert segments_after == segments_before
        assert decode(RunLedger.open(ledger.root).get(key)) == CELL

    def test_conflicting_duplicate_key_refused(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        key = campaign_cell_key("K20", "a", "e", 5, 0)
        ledger.append(store_records.encode_campaign_cell(key, CELL))
        conflicting = dataclasses.replace(CELL, errors=9)
        with pytest.raises(LedgerConflictError):
            ledger.append(
                store_records.encode_campaign_cell(key, conflicting)
            )
        # Nothing durable changed: the original record survives.
        assert decode(RunLedger.open(ledger.root).get(key)) == CELL

    def test_killed_writer_truncated_tail_tolerated(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        with ledger.writer() as writer:
            for i in range(3):
                writer.write(
                    store_records.encode_campaign_cell(
                        campaign_cell_key("K20", f"app{i}", "e", 5, 0),
                        dataclasses.replace(CELL, app=f"app{i}"),
                    )
                )
        segments = list((tmp_path / "led").glob("seg-*.jsonl"))
        assert len(segments) == 1
        # Simulate a writer killed mid-record: chop into the last line.
        raw = segments[0].read_bytes()
        segments[0].write_bytes(raw[:-10])
        survivors = RunLedger.open(tmp_path / "led")
        assert len(survivors) == 2
        assert campaign_cell_key("K20", "app1", "e", 5, 0) in survivors
        assert campaign_cell_key("K20", "app2", "e", 5, 0) not in survivors

    def test_mid_file_corruption_refused(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        with ledger.writer() as writer:
            for i in range(3):
                writer.write(
                    store_records.encode_campaign_cell(
                        campaign_cell_key("K20", f"app{i}", "e", 5, 0),
                        CELL,
                    )
                )
        segment = next((tmp_path / "led").glob("seg-*.jsonl"))
        lines = segment.read_text().splitlines()
        lines[1] = lines[1][:-5] + "@@@"
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerCorruptError):
            RunLedger.open(tmp_path / "led")

    def test_complete_final_line_with_bad_json_refused(self, tmp_path):
        # A *complete* line (newline-terminated) that does not parse is
        # corruption, not a killed writer.
        ledger = RunLedger.create(tmp_path / "led")
        segment = ledger.root / "seg-000001.jsonl"
        segment.write_text('{"key": "k", "kind": "campaign"\n')
        with pytest.raises(LedgerCorruptError):
            RunLedger.open(tmp_path / "led")

    def test_empty_writer_leaves_no_segment(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        with ledger.writer():
            pass
        assert list((tmp_path / "led").glob("seg-*.jsonl")) == []

    def test_append_is_atomic_segment(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        ledger.append(
            store_records.encode_campaign_cell(
                campaign_cell_key("K20", "a", "e", 5, 0), CELL
            )
        )
        segments = list((tmp_path / "led").glob("seg-*.jsonl"))
        assert len(segments) == 1
        assert not list((tmp_path / "led").glob("*.tmp"))

    def test_bad_manifest_format_refused(self, tmp_path):
        RunLedger.create(tmp_path / "led")
        manifest = tmp_path / "led" / "manifest.json"
        manifest.write_text(json.dumps({"format": 999}))
        with pytest.raises(LedgerError):
            RunLedger.open(tmp_path / "led")


class TestLedgerMerge:
    """Content-key merge semantics backing the distributed ingest path."""

    def _record(self, errors=3):
        return store_records.encode_campaign_cell(
            campaign_cell_key("K20", "a", "e", 5, 0),
            dataclasses.replace(CELL, errors=errors),
        )

    def test_ingest_same_records_twice_writes_zero(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        assert ledger.ingest([self._record()]) == 1
        assert ledger.ingest([self._record()]) == 0
        assert len(ledger) == 1

    def test_ingest_conflicting_payload_refused(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "led")
        ledger.ingest([self._record()])
        with pytest.raises(LedgerConflictError):
            ledger.ingest([self._record(errors=9)])
        # The refusal left the original record untouched on disk.
        reopened = RunLedger.open(tmp_path / "led")
        cell = store_records.decode_campaign_cell(
            reopened.get(campaign_cell_key("K20", "a", "e", 5, 0))
        )
        assert cell.errors == 3

    def test_overlapping_shards_from_different_jobs_coexist(
        self, tmp_path, k20
    ):
        """Two runs of the same grid at different ``--jobs`` produce
        shard records with overlapping run ranges under *different*
        content keys; merging their ledgers must not conflict, and a
        resume over the merged ledger stays bit-identical."""
        args = _campaign_args(k20)
        cold = run_campaign(**args)

        serial = RunLedger.create(tmp_path / "a")
        run_campaign(**args, ledger=serial)
        sharded = RunLedger.create(tmp_path / "b")
        run_campaign(
            **args, parallel=ParallelConfig(jobs=2), ledger=sharded
        )

        merged = RunLedger.create(tmp_path / "merged")
        merged.ingest(serial.records())
        # The jobs=2 cells are byte-identical (skipped); its shards
        # cover the same run ranges under different keys (written).
        written = merged.ingest(sharded.records())
        assert written == sharded.counts_by_kind()["campaign-shard"]
        assert run_campaign(**args, ledger=merged) == cold


def _campaign_args(k20):
    return dict(
        chips=[k20],
        apps=[get_application("cbe-dot"), get_application("cbe-ht")],
        environments=["no-str-", "sys-str+"],
        scale=TINY,
        seed=3,
    )


class TestResumeParity:
    """Interrupted-then-resumed statistics must match a cold run exactly."""

    def test_resumed_campaign_matches_cold_and_jobs2(
        self, tmp_path, monkeypatch, k20
    ):
        args = _campaign_args(k20)
        cold = run_campaign(**args)

        import repro.testing.campaign as campaign_module

        real_submit_units = campaign_module.submit_units

        def interrupting_submit_units(units, config, ledger, submit=None):
            count = 0

            def interrupting_submit(batch, cfg, on_record):
                def counting(index, record):
                    nonlocal count
                    if on_record is not None:
                        on_record(index, record)
                    count += 1
                    if count >= 2:
                        raise KeyboardInterrupt

                return run_units(batch, cfg, counting)

            return real_submit_units(
                units, config, ledger, interrupting_submit
            )

        ledger = RunLedger.create(tmp_path / "led")
        monkeypatch.setattr(
            campaign_module, "submit_units", interrupting_submit_units
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(**args, ledger=ledger)
        monkeypatch.setattr(
            campaign_module, "submit_units", real_submit_units
        )

        # The kill landed mid-campaign: some shards persisted, no cell
        # finished, and the resumed run completes bit-identically.
        interrupted = RunLedger.open(tmp_path / "led")
        assert interrupted.counts_by_kind().get("campaign-shard") == 2
        resumed = run_campaign(**args, ledger=interrupted)
        assert resumed == cold

        # A jobs=2 run over a fresh ledger also matches.
        parallel_ledger = RunLedger.create(tmp_path / "led2")
        sharded = run_campaign(
            **args, parallel=ParallelConfig(jobs=2), ledger=parallel_ledger
        )
        assert sharded == cold

        # And resuming *across* worker counts is exact too: a serial
        # resume over the jobs=2 ledger decodes the same cells.
        assert run_campaign(**args, ledger=parallel_ledger) == cold

    def test_complete_ledger_needs_zero_simulation(
        self, tmp_path, monkeypatch, k20
    ):
        args = _campaign_args(k20)
        ledger = RunLedger.create(tmp_path / "led")
        cells = run_campaign(**args, ledger=ledger)

        def explode(unit):  # pragma: no cover - must never run
            raise AssertionError("ledger-complete run simulated a shard")

        monkeypatch.setitem(plan._EXECUTORS, "campaign-shard", explode)
        assert run_campaign(**args, ledger=ledger) == cells

    def test_mid_cell_shard_records_shrink_the_resume(
        self, tmp_path, monkeypatch, k20
    ):
        """Only the runs not covered by checkpointed shards re-execute."""
        args = _campaign_args(k20)
        cold = run_campaign(**args)
        ledger = RunLedger.create(tmp_path / "led")

        import repro.testing.campaign as campaign_module

        real_execute = campaign_module.execute_campaign_unit
        executed: list[tuple[str, int, int]] = []

        def recording_execute(unit):
            executed.append(
                (unit.spec["app"], unit.spec["start"], unit.spec["stop"])
            )
            return real_execute(unit)

        # Pre-checkpoint runs [0, 3) of the first cell by hand.
        app = args["apps"][0]
        pre_unit = campaign_module.campaign_unit(
            k20, app, _env(k20, "no-str-"), TINY.campaign_runs, 3, 0, 3
        )
        ledger.append(real_execute(pre_unit))
        monkeypatch.setitem(
            plan._EXECUTORS, "campaign-shard", recording_execute
        )
        resumed = run_campaign(**args, ledger=ledger)
        assert resumed == cold
        # The pre-checkpointed range was skipped...
        assert (app.name, 0, 3) not in executed
        # ...and its complement ran as one shard.
        assert (app.name, 3, TINY.campaign_runs) in executed


def _env(chip, name):
    from repro.stress.environment import standard_environments

    envs = {
        e.name: e
        for e in standard_environments(shipped_params(chip.short_name))
    }
    return envs[name]


class TestLedgeredExperiments:
    def test_table5_interrupt_resume_byte_identical_and_zero_sim(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion: an interrupted ``--out`` campaign
        resumed with ``--resume`` renders byte-identical table5 output,
        and the complete ledger re-renders with zero simulation runs."""
        kwargs = dict(
            scale=TINY, seed=5, chips=("K20",),
            environments=("no-str-", "sys-str+"),
        )
        cold = run_experiment("table5", **kwargs)

        import repro.testing.campaign as campaign_module

        real_submit_units = campaign_module.submit_units

        def interrupting_submit_units(units, config, ledger, submit=None):
            count = 0

            def interrupting_submit(batch, cfg, on_record):
                def counting(index, record):
                    nonlocal count
                    if on_record is not None:
                        on_record(index, record)
                    count += 1
                    if count >= 3:
                        raise KeyboardInterrupt

                return run_units(batch, cfg, counting)

            return real_submit_units(
                units, config, ledger, interrupting_submit
            )

        out = str(tmp_path / "ledger")
        monkeypatch.setattr(
            campaign_module, "submit_units", interrupting_submit_units
        )
        with pytest.raises(KeyboardInterrupt):
            run_experiment("table5", **kwargs, out=out)
        monkeypatch.setattr(
            campaign_module, "submit_units", real_submit_units
        )

        resumed = run_experiment("table5", **kwargs, resume=out)
        assert resumed == cold

        def explode(unit):  # pragma: no cover - must never run
            raise AssertionError("complete ledger re-simulated a shard")

        monkeypatch.setitem(plan._EXECUTORS, "campaign-shard", explode)
        assert run_experiment("table5", **kwargs, resume=out) == cold

    def test_survey_renders_from_ledger_without_runs(
        self, tmp_path, monkeypatch
    ):
        kwargs = dict(
            scale=SMOKE, seed=3, chips=("K20",), tests=("MP", "SB"),
        )
        out = str(tmp_path / "ledger")
        first = run_experiment("survey", **kwargs, out=out)

        import repro.litmus.units  # noqa: F401 - registers the executor

        def explode(unit):  # pragma: no cover - must never run
            raise AssertionError("survey re-ran a ledgered litmus test")

        monkeypatch.setitem(plan._EXECUTORS, "litmus", explode)
        assert run_experiment("survey", **kwargs, resume=out) == first

    def test_open_ledger_rejects_mismatched_out_resume(self, tmp_path):
        # LedgerError (a ReproError) so every CLI subcommand reports it
        # as a clean `gpu-wmm: error:` line, not a traceback.
        RunLedger.create(tmp_path / "a")
        with pytest.raises(LedgerError):
            open_ledger(out=str(tmp_path / "a"), resume=str(tmp_path / "b"))

    def test_open_ledger_same_dir_both_flags(self, tmp_path):
        RunLedger.create(tmp_path / "a")
        ledger = open_ledger(out=str(tmp_path / "a"),
                             resume=str(tmp_path / "a"))
        assert isinstance(ledger, RunLedger)

    def test_open_ledger_none(self):
        assert open_ledger() is None
