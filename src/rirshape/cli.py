"""Command-line interface.

Subcommands: shape, synth-rir, analyze-rir, gains, make-dataset,
verify, plot-data. Flag defaults are the standard shaping constants
(t0 20 ms, t1 30 ms, rd 200 ms, alpha 0.4), so bare invocations
reproduce the stock configurations. Errors print one machine-parseable
``error: ...`` line on stderr and exit nonzero. A ``--config`` file
(key=value lines, one key per optional flag but help and config, dashes
as underscores) supplies defaults that explicit flags override;
RIRSHAPE_OUT_DIR sets the fallback output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import acoustics, bands, dsp, kvtext, pipeline, shaping, wavio
from .errors import ParameterError, RirshapeError

ENV_OUT_DIR = "RIRSHAPE_OUT_DIR"
MAX_PLOT_ROWS = 10 ** 6  # most rows plot-data writes: ~1000 s at the default 1 ms step
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _out_path(explicit, default_name: str) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(ENV_OUT_DIR, ".")) / default_name


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ParameterError(f"--{name} is required (flag or config)")


def _shaping_params(args) -> shaping.ShapingParams:
    _require(args, "strategy")
    return shaping.ShapingParams(args.strategy, args.t0, args.t1, args.alpha, args.rd)


def _add_shaping_flags(parser, with_strategy=True):
    if with_strategy:
        parser.add_argument("--strategy", default=None,
                            choices=[s.value for s in shaping.Strategy])
    parser.add_argument("--t0", type=float, default=None,
                        help="early/late boundary in seconds (default 0.020)")
    parser.add_argument("--t1", type=float, default=None,
                        help="end of the attenuation transition in seconds (default 0.030)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="late-tail amplitude factor (default per strategy)")
    parser.add_argument("--rd", type=float, default=None,
                        help="60 dB decay time of the decay curve in seconds (default 0.200)")


def cmd_shape(args) -> int:
    rir = shaping.read_rir(args.rir)
    params = _shaping_params(args)
    shaped = shaping.shape_rir(rir, params)
    out = _out_path(args.out, Path(args.rir).stem + ".shaped.wav")
    metadata = dict(params.as_dict(), source=str(args.rir))
    shaping.write_rir(shaped, out, metadata=metadata, encoding=args.encoding)
    print(f"wrote {out}")
    return 0


def cmd_synth_rir(args) -> int:
    _require(args, "rt60")
    seed = args.seed if args.seed is not None else 0
    rir = shaping.synth_rir(args.rt60, length=args.length, n_early=args.n_early,
                            seed=seed, sample_rate=args.sample_rate,
                            tail_level=args.tail_level)
    out = _out_path(args.out, f"rir_rt60_{args.rt60:g}_seed{seed}.wav")
    shaping.write_rir(rir, out, metadata={"nominal_rt60": args.rt60, "seed": seed,
                                          "n_early": args.n_early},
                      encoding=args.encoding)
    print(f"wrote {out}")
    return 0


def cmd_analyze_rir(args) -> int:
    rir = shaping.read_rir(args.rir)
    record = {"file": args.rir, "taps": len(rir), "sample_rate": rir.sample_rate,
              "direct_index": rir.direct_index,
              "drr_db": acoustics.drr(rir, args.boundary),
              "drr_boundary": args.boundary}
    try:
        record["rt60_estimate"] = acoustics.estimate_rt60(rir)
    except RirshapeError as exc:
        record["rt60_estimate"] = "undefined"
        record["rt60_error"] = str(exc)
    sys.stdout.write(kvtext.dump_kv(record))
    if args.edc_csv:
        curve = acoustics.energy_decay_curve(rir)
        rows = [["t_s", "level_db"], *zip(curve.times, curve.levels)]
        Path(args.edc_csv).write_text(kvtext.csv_text(rows), encoding="utf-8")
        print(f"wrote {args.edc_csv}")
    return 0


def cmd_verify(args) -> int:
    h0 = shaping.read_rir(args.rir)
    params = _shaping_params(args)
    h1 = shaping.shape_rir(h0, params)
    report = acoustics.verify_shaping(h0, h1, params)
    sys.stdout.write(report.to_kv())
    if args.csv:
        path = Path(args.csv)
        new = not path.exists() or path.stat().st_size == 0
        record = dataclasses.asdict(report)
        rows = [record.keys(), record.values()] if new else [record.values()]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(kvtext.csv_text(rows))
    return 0


def cmd_gains(args) -> int:
    _require(args, "input", "target")
    noisy = wavio.read_wav(args.input)
    gains = pipeline.pair_gains(noisy, wavio.read_wav(args.target))
    suffix = ".gains.f32" if args.binary else ".gains.csv"
    out = _out_path(args.out, Path(args.input).stem + suffix)
    write = bands.write_band_matrix_raw if args.binary else bands.write_band_matrix_csv
    write(gains, out, noisy.sample_rate)
    print(f"wrote {out}")
    if args.apply_out:
        fb = bands.design_erb_filterbank(noisy.sample_rate)
        if args.mode == "rectangular":
            fb = fb.rectangularized()
        filtered = bands.apply_gains(dsp.analyze([noisy])[0], gains, fb)
        wavio.write_wav(dsp.synthesize(filtered), args.apply_out)
        print(f"wrote {args.apply_out}")
    return 0


def cmd_make_dataset(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    if args.seed is not None:
        manifest.seed = args.seed
    out_dir = _out_path(args.out_dir, "dataset")
    summary = pipeline.build_dataset(manifest, out_dir, workers=args.workers)
    sys.stdout.write(summary.to_kv())
    for failure in summary.failures():
        print(f"error: entry {failure.entry_id}: {failure.reason}", file=sys.stderr)
    return 0 if summary.n_failed == 0 else 1


def cmd_plot_data(args) -> int:
    params = shaping.ShapingParams(shaping.Strategy.ATTENUATED_DECAYED,
                                   args.t0, args.t1, args.alpha, args.rd)
    for name, value in (("step", args.step), ("rt60", args.rt60), ("duration", args.duration)):
        if value is not None and not 0.0 < value < math.inf:
            raise ParameterError(f"--{name} must be positive and finite, got {value}")
    if args.duration is not None:
        duration = args.duration
    elif args.function == "A":
        duration = params.t1 + 0.020
    elif args.function == "D":
        duration = params.t0 + 2.0 * params.rd
    else:
        duration = 0.4
    if duration == math.inf:  # an infinite --t1 or --rd leaves the curve no default span
        flag = "t1" if args.function == "A" else "rd"
        raise ParameterError(f"--{flag} {getattr(params, flag)} gives the {args.function} "
                             "curve no finite span: --duration is needed")
    intervals = duration / args.step
    if not intervals <= MAX_PLOT_ROWS - 1:
        raise ParameterError(f"{duration:g} s at --step {args.step:g} is {intervals + 1:.3g} "
                             f"rows, more than the {MAX_PLOT_ROWS} allowed")
    t = np.arange(int(round(intervals)) + 1) * args.step

    if args.function == "D":
        header, columns = ["t_s", "D"], [shaping.decay_function(t, params)]
    elif args.function == "A":
        header, columns = ["t_s", "A"], [shaping.attenuation_function(t, params)]
    else:
        envelope = 10.0 ** (-3.0 * t / args.rt60)
        strategies = (shaping.Strategy.NONE, shaping.Strategy.DECAYED,
                      shaping.Strategy.ATTENUATED_DECAYED)
        header = ["t_s", *(s.value.replace("-", "_") for s in strategies)]
        columns = [envelope * shaping.shaping_gain(t, dataclasses.replace(params, strategy=s))
                   for s in strategies]

    out = _out_path(args.out, f"curve_{args.function.replace('-', '_')}.csv")
    out.write_text(kvtext.csv_text([header, *zip(t, *columns)]), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key=value file of flag defaults")

    parser = argparse.ArgumentParser(
        prog="rirshape",
        description="Shape room impulse responses and build dereverberation "
                    "training data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shape", parents=[common],
                       help="apply a shaping strategy to an impulse response")
    p.add_argument("rir", help="input RIR (mono WAV)")
    _add_shaping_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--encoding", default="float32", choices=wavio.ENCODINGS)
    p.set_defaults(func=cmd_shape, parser=p)

    p = sub.add_parser("synth-rir", parents=[common],
                       help="synthesize a stochastic impulse response")
    p.add_argument("--rt60", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="noise seed (default 0)")
    p.add_argument("--length", type=float, default=None)
    p.add_argument("--n-early", type=int, default=shaping.DEFAULT_N_EARLY)
    p.add_argument("--sample-rate", type=int, default=dsp.DEFAULT_SAMPLE_RATE)
    p.add_argument("--tail-level", type=float, default=shaping.DEFAULT_TAIL_LEVEL)
    p.add_argument("--out", default=None)
    p.add_argument("--encoding", default="float32", choices=wavio.ENCODINGS)
    p.set_defaults(func=cmd_synth_rir, parser=p)

    p = sub.add_parser("analyze-rir", parents=[common],
                       help="measure RT60 and DRR of an impulse response")
    p.add_argument("rir")
    p.add_argument("--boundary", type=float, default=acoustics.DEFAULT_DRR_BOUNDARY)
    p.add_argument("--edc-csv", default=None,
                   help="also write the energy decay curve as CSV")
    p.set_defaults(func=cmd_analyze_rir, parser=p)

    p = sub.add_parser("verify", parents=[common],
                       help="shape an RIR and check the measured effect "
                            "against prediction")
    p.add_argument("rir")
    _add_shaping_flags(p)
    p.add_argument("--csv", default=None, help="append the report to a CSV file")
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("gains", parents=[common],
                       help="compute ideal band gains for an input/target pair")
    p.add_argument("--input", default=None, help="noisy-reverberant WAV")
    p.add_argument("--target", default=None, help="target WAV (same length)")
    p.add_argument("--out", default=None)
    p.add_argument("--binary", action="store_true",
                   help="write raw float32 + sidecar instead of CSV")
    p.add_argument("--mode", default="triangular", choices=("triangular", "rectangular"),
                   help="filterbank that applies the gains for --apply-out: its "
                        "triangular weights or its rectangularized band ownership")
    p.add_argument("--apply-out", default=None,
                   help="also apply the gains and write the filtered WAV here")
    p.set_defaults(func=cmd_gains, parser=p)

    p = sub.add_parser("make-dataset", parents=[common],
                       help="generate training examples from a manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="overrides the manifest's seed=")
    p.set_defaults(func=cmd_make_dataset, parser=p)

    p = sub.add_parser("plot-data", parents=[common],
                       help="emit CSV curves of the shaping functions")
    p.add_argument("function", choices=["D", "A", "shaped-tail"])
    _add_shaping_flags(p, with_strategy=False)
    p.add_argument("--rt60", type=float, default=1.0,
                   help="room decay time for the shaped-tail envelope")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--step", type=float, default=0.001)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plot_data, parser=p)

    return parser


def _flag_value(action: argparse.Action, raw: str):
    """A config value converted and checked like the flag ``action``'s own value."""
    switch = isinstance(action.default, bool)  # it takes a word in a config file
    value = raw.lower() if switch else action.type(raw) if action.type else raw
    choices = _BOOLEANS if switch else action.choices
    if choices is not None and value not in choices:
        raise ValueError(f"{raw!r} is not one of {'/'.join(map(str, choices))}")
    return _BOOLEANS[value] if switch else value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the keys are the optional flags but --help and --config; every value
            # becomes its flag's default, so any flag given wins, yet all are checked
            parsers = {a.dest: functools.partial(_flag_value, a) for a in args.parser._actions
                       if a.option_strings and a.dest not in ("help", "config")}
            args.parser.set_defaults(
                **kvtext.convert(kvtext.load_kv(args.config), parsers, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (RirshapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
