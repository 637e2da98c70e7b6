"""The unified :class:`RunConfig`: validation and round-trips through
the CLI flags, the lab's job specs and the bench config."""

import argparse
import dataclasses

import pytest

from repro import ObsConfig, RunConfig, engine_axes
from repro.bench.experiments import BenchConfig
from repro.cli import add_engine_args, add_obs_args, run_config_from_args
from repro.config import UnknownNameError
from repro.core import run_ordering, run_summary
from repro.lab.grid import JobSpec


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.engine == "reference"
        assert cfg.sim_engine == "reference"
        assert cfg.mem_engine == "sequential"
        assert cfg.order_engine == "reference"
        assert cfg.seed == 0
        assert cfg.machine_profile is None
        assert cfg.obs == ObsConfig()

    def test_frozen_and_hashable(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.engine = "vectorized"
        assert {cfg: 1}[RunConfig()] == 1

    def test_validate_returns_self_on_good_config(self):
        cfg = RunConfig(
            engine="vectorized",
            sim_engine="batched",
            order_engine="batched",
            machine_profile="scaling",
        )
        assert cfg.validate() is cfg

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"engine": "turbo"}, "unknown engine 'turbo'"),
            ({"sim_engine": "turbo"}, "unknown sim engine 'turbo'"),
            ({"mem_engine": "turbo"}, "unknown mem engine 'turbo'"),
            ({"order_engine": "turbo"}, "unknown order engine 'turbo'"),
            ({"machine_profile": "laptop"}, "unknown machine profile 'laptop'"),
            ({"backend": "torch"}, "unknown backend 'torch'; valid backends: numpy$"),
            ({"backend": "cupy"}, "unknown backend 'cupy'; valid backends: numpy$"),
            (
                {"mem_engine": "sharded"},
                "unknown mem engine 'sharded'; valid mem engines: sequential$",
            ),
        ],
    )
    def test_validate_rejects_unknown_names(self, kwargs, message):
        with pytest.raises(UnknownNameError, match=message):
            RunConfig(**kwargs).validate()

    def test_replace_builds_a_new_config(self):
        cfg = RunConfig()
        other = cfg.replace(engine="vectorized", seed=7)
        assert other.engine == "vectorized" and other.seed == 7
        assert cfg.engine == "reference"

    def test_dict_round_trip_including_obs(self):
        cfg = RunConfig(
            engine="vectorized",
            seed=3,
            obs=ObsConfig(enabled=True, trace_path="t.jsonl"),
        )
        data = cfg.as_dict()
        assert data["obs"]["trace_path"] == "t.jsonl"
        assert RunConfig.from_dict(data) == cfg

    def test_from_dict_ignores_unknown_keys(self):
        assert RunConfig.from_dict({"engine": "vectorized", "bogus": 1}) == (
            RunConfig(engine="vectorized")
        )

    def test_engine_axes_cover_every_axis(self):
        axes = engine_axes()
        assert list(axes) == ["engine", "sim_engine", "order_engine", "trace_mode"]
        assert axes["engine"] == ("reference", "vectorized")
        assert axes["sim_engine"] == ("reference", "batched")
        assert axes["order_engine"] == ("reference", "batched")


class TestCliRoundTrip:
    def parse(self, argv, *, plural=False):
        parser = argparse.ArgumentParser()
        add_engine_args(parser, plural=plural)
        if not plural:
            add_obs_args(parser)
        return parser.parse_args(argv)

    def test_args_round_trip_into_a_config(self, tmp_path):
        args = self.parse([
            "--engine", "vectorized",
            "--sim-engine", "batched",
            "--order-engine", "batched",
            "--seed", "7",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ])
        cfg = run_config_from_args(args)
        assert cfg == RunConfig(
            engine="vectorized",
            sim_engine="batched",
            order_engine="batched",
            seed=7,
            obs=ObsConfig(
                enabled=True, trace_path=str(tmp_path / "t.jsonl")
            ),
        )

    def test_defaults_round_trip_with_obs_disabled(self):
        cfg = run_config_from_args(self.parse([]))
        assert cfg == RunConfig()
        assert not cfg.obs.enabled

    def test_plural_args_parse_into_tuples(self):
        args = self.parse(
            ["--engines", "reference,vectorized", "--seeds", "0,1,2"],
            plural=True,
        )
        assert args.engines == ("reference", "vectorized")
        assert args.sim_engines == ("reference",)
        assert args.order_engines == ("reference",)
        assert args.seeds == (0, 1, 2)


class TestSpecRoundTrips:
    CFG = RunConfig(
        engine="vectorized", sim_engine="batched", order_engine="batched",
        seed=3,
    )

    def test_job_spec_round_trip(self):
        spec = JobSpec.from_run_config(
            self.CFG, experiment="pipeline", domain="ocean", ordering="rdr"
        )
        assert spec.engine == "vectorized"
        assert spec.order_engine == "batched"
        assert spec.to_run_config() == self.CFG
        assert "order_engine=batched" in spec.key()
        # Specs stored before the backend/mem_engine axes were removed
        # still load.
        stored = {**spec.as_dict(), "backend": "torch", "mem_engine": "sharded"}
        assert JobSpec.from_dict(stored) == spec

    def test_bench_config_round_trip(self):
        cfg = BenchConfig.from_run_config(self.CFG, suite_scale=0.01)
        assert cfg.engine == "vectorized"
        assert cfg.suite_scale == 0.01
        assert cfg.to_run_config() == self.CFG

    def test_run_records_full_provenance(self, ocean_mesh):
        run = run_ordering(
            ocean_mesh,
            "rdr",
            config=RunConfig(
                engine="vectorized", sim_engine="batched",
                order_engine="batched",
            ),
            fixed_iterations=1,
        )
        row = run_summary(run)
        assert row["engine"] == "vectorized"
        assert row["sim_engine"] == "batched"
        assert row["order_engine"] == "batched"
        assert row["seed"] == 0
        assert row["machine"] == run.machine.name
        assert row["machine_profile"] is None
