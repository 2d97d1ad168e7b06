"""chaosmark command line interface.

Four command families:

    chaosmark embed    hide a message in a host vector
    chaosmark decode   recover a message from a stego vector
    chaosmark analyze  run chaos witnesses, traces, and scans
    chaosmark tm       run a Turing machine description

Exit codes: 0 success (and witness verdict true), 1 witness verdict
false, 2 usage or parameter error (or a refused allocation), 3 I/O or
parse error.  Reports are emitted with sorted keys and stable float
formatting, so identical inputs produce byte-identical reports; every
report embeds the full effective configuration.  Where randomness is
needed the seed comes from --seed, falling back to the CHAOSMARK_SEED
environment variable, then 0; a negative seed is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import budget, fileio
from .chaos_analysis import (
    DEFAULT_TOLERANCE,
    _require_eps,
    _require_orbit_budget,
    _require_scales,
    _require_scan,
    _require_tolerance,
    _sensitivity_point,
    ball_index,
    divergence_trace,
    empirical_sensitivity_scan,
    expansivity_counterexample,
    expansivity_pair,
    phase_point_to_dict,
    random_phase_point,
    witness_continuity,
    witness_regularity,
    witness_sensitivity,
    witness_strong_transitivity,
)
from .fileio import FormatError
from .modulation import SCHEMES, SchemeConfig, decode, embed, generate_carriers
from .phase_space import SpaceConfig, d_inf
from .tm_encoding import (
    MachineParseError,
    initial_configuration,
    parse_machine,
    tm_run,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_IO = 3

_DEFAULT_SCALES = "0.1,0.01,0.001,0.0001,1e-05,1e-06"


def _seed_of(args) -> int:
    if args.seed is not None:
        source, seed = "--seed", args.seed
    else:
        source = "CHAOSMARK_SEED"
        raw = os.environ.get(source, "").strip()
        try:
            seed = int(raw) if raw else 0
        except ValueError:
            raise ValueError(f"CHAOSMARK_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


# ---------- embed / decode ----------

# nv and nc come from the input, every later field from its option's dest
_SCHEME_FIELDS = tuple(f.name for f in dataclasses.fields(SchemeConfig))
_REPORTED = {"lam": "lambda"}


def _scheme_config(args, nv: int, nc: int) -> SchemeConfig:
    return SchemeConfig(nv=nv, nc=nc, **{name: getattr(args, name)
                                         for name in _SCHEME_FIELDS[2:]})


def _scheme_config_dict(cfg: SchemeConfig, scheme: str) -> dict:
    config = {_REPORTED.get(name, name): getattr(cfg, name)
              for name in _SCHEME_FIELDS if name != "key"}
    config["key_fingerprint"] = fileio.key_fingerprint(cfg.key)
    return {"scheme": scheme, **config}


def _text_or_file(args, name: str) -> str | None:
    """--<name>, or the stripped text of --<name>-file; None if neither."""
    text, path = getattr(args, name), getattr(args, f"{name}_file")
    if text is not None and path is not None:
        raise ValueError(f"give either --{name} or --{name}-file, not both")
    return text if path is None else fileio.read_text(path).strip()


def _vector(args, name: str):
    """The vector file given as --<name>, as long as --nv when that is given."""
    vec = fileio.read_vector(getattr(args, name))
    if args.nv is not None and vec.size != args.nv:
        raise ValueError(f"{name} has {vec.size} components but --nv is {args.nv}")
    return vec


def _cmd_embed(args) -> int:
    host = _vector(args, "host")
    text = _text_or_file(args, "message")
    if text is None:
        raise ValueError("a message is required: --message or --message-file")
    bits = fileio.parse_message_text(text, args.nc)
    cfg = _scheme_config(args, host.size, bits.size)
    carriers = generate_carriers(cfg)
    stego = embed(host, bits, carriers, cfg, args.scheme)
    fileio.write_vector(args.out, stego)

    meta = fileio.report("embed", _scheme_config_dict(cfg, args.scheme),
                         host=str(args.host), stego=str(args.out),
                         distortion_inf=d_inf(stego, host))
    meta_path = args.meta if args.meta else f"{args.out}.meta.json"
    fileio.emit(meta, "json", meta_path)
    print(f"embedded {cfg.nc} bits with {args.scheme} into {args.out} "
          f"(distortion_inf={meta['distortion_inf']!r}, meta={meta_path})")
    return EXIT_OK


def _cmd_decode(args) -> int:
    stego = _vector(args, "stego")
    if args.nc is None:
        raise ValueError("--nc is required to decode")
    cfg = _scheme_config(args, stego.size, args.nc)
    carriers = generate_carriers(cfg)
    result = decode(stego, carriers, args.scheme)
    bitstring = fileio.bits_to_string(result.bits)
    if args.out:
        payload = fileio.report("decode", _scheme_config_dict(cfg, args.scheme),
                                stego=str(args.stego), bits=bitstring,
                                ties=list(result.ties))
        fileio.emit(payload, "json", args.out)
    print(bitstring)
    if result.ties:
        print(f"warning: zero projection on carriers {list(result.ties)}; "
              f"those bits defaulted to 0", file=sys.stderr)
    return EXIT_OK


# ---------- analyze ----------
# An analysis takes the arguments, the space, the seed and a lazy stream
# of start points; it returns its own config keys and its report body.
# expansivity draws no point, so it never seeds a generator.  Every
# report but scan's and trace's echoes --tolerance, so _cmd_analyze
# checks it before any runs; each analysis checks its own values before
# its first draw.

def _start_points(seed: int, space: SpaceConfig):
    """Random start points, drawn on demand from default_rng(seed).  The
    width is charged at the first draw, after an analysis's own checks:
    the orbit budget, which also weighs nv, keeps its errors."""
    budget.charge("MAX_MEDIA_COMPONENTS", space.nv,
                  f"a start point of --nv {space.nv} components")
    rng = np.random.default_rng(seed)
    while True:
        yield random_phase_point(rng, space)


def _sensitivity(args, space, seed, points):
    ball_index(args.r)
    report = witness_sensitivity(next(points), args.r, space, args.tolerance)
    return {"r": args.r}, {"report": report.to_dict()}


def _transitivity(args, space, seed, points):
    ball_index(args.r_a)
    x_a, x_b = next(points), next(points)
    report = witness_strong_transitivity(x_a, args.r_a, x_b, space,
                                         args.tolerance)
    return {"r_a": args.r_a}, {"report": report.to_dict()}


def _regularity(args, space, seed, points):
    _require_eps(args.eps)
    report = witness_regularity(next(points), args.eps, space, args.tolerance)
    return {"eps": args.eps}, {"report": report.to_dict()}


def _expansivity(args, space, seed, points):
    report = expansivity_counterexample(args.eps, args.n_max, space,
                                        args.tolerance)
    if not report.measured["eps_bound_holds"]:
        print(f"note: sup distance {report.measured['sup_distance']!r} "
              f"exceeds eps={args.eps!r} (bound_n={args.bound_n!r} < 10); "
              f"the derived bound still holds", file=sys.stderr)
    return {"eps": args.eps, "n_max": args.n_max}, {"report": report.to_dict()}


def _continuity(args, space, seed, points):
    scales = _require_scales(s for s in args.scales.split(",") if s.strip())
    x = next(points)
    report, trace = witness_continuity(x, scales, space, args.tolerance)
    return {"scales": scales}, {"report": report.to_dict(),
                                "trace": trace.to_dict()}


def _scan(args, space, seed, points):
    _require_scan(args.trials, args.n_max, space.nv)
    ball_index(args.r)
    x = next(points)
    value = empirical_sensitivity_scan(x, args.r, args.trials, args.n_max,
                                       seed, space)
    return ({"r": args.r, "trials": args.trials, "n_max": args.n_max},
            {"result": {"max_separation": value,
                        "start_point": phase_point_to_dict(x)}})


def _trace(args, space, seed, points):
    _require_orbit_budget(args.n_max, space.nv)
    # the report records both values, whichever of them the pair uses
    k0 = ball_index(args.r)
    _require_eps(args.eps)
    if args.pair == "expansivity":
        x, y = expansivity_pair(args.eps, space)
    elif args.pair == "sensitivity":
        x = next(points)
        y = _sensitivity_point(x, k0, space)
    else:
        x, y = next(points), next(points)
    trace = divergence_trace(x, y, args.n_max, space)
    return ({"pair": args.pair, "r": args.r, "eps": args.eps,
             "n_max": args.n_max}, {"trace": trace.to_dict()})


def _cmd_analyze(args) -> int:
    space = SpaceConfig(nv=args.nv, bound_n=args.bound_n)
    seed = _seed_of(args)
    config = {"nv": space.nv, "bound_n": space.bound_n, "seed": seed}
    if "tolerance" in args:
        config["tolerance"] = _require_tolerance(args.tolerance)
    extra, body = args.analyze(args, space, seed, _start_points(seed, space))
    config.update(extra)
    fileio.emit(fileio.report(f"analyze {args.analysis}", config, **body),
                args.format, args.out,
                kind="trace" if args.analysis == "trace" else "kv")
    return EXIT_OK if body.get("report", {}).get("verdict", True) else EXIT_FALSE


# ---------- tm ----------

def _cmd_tm(args) -> int:
    machine = parse_machine(fileio.read_text(args.machine))
    tape = _text_or_file(args, "tape") or ""
    start = initial_configuration(machine, tape, args.head)
    result = tm_run(machine, start, args.max_steps)
    config = {"machine": str(args.machine), "tape": tape, "head": args.head,
              "max_steps": args.max_steps}
    payload = fileio.report("tm", config, result=result.to_dict(machine))
    if args.out or args.format == "csv":
        fileio.emit(payload, args.format, args.out)
    else:
        verb = "halted" if result.halted else "stopped"
        print(f"{verb} after {result.steps} steps ({result.reason}); "
              f"state={result.config.state} head={result.config.head} "
              f"tape={payload['result']['tape']!r}")
    return EXIT_OK


# ---------- parser ----------

def _add_scheme_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--nv", type=int, default=None,
                   help="vector dimension (default: length of the input file)")
    p.add_argument("--nc", type=int, default=None,
                   help="message length in bits / carrier count")
    p.add_argument("--gamma", type=float, default=1.0, help="ss amplitude")
    p.add_argument("--alpha", type=float, default=1.0, help="iss amplitude")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="iss host-rejection factor in [0, 1]")
    p.add_argument("--eta", type=float, default=1.0, help="nw distortion factor")
    p.add_argument("--key", type=int, default=0,
                   help="64-bit unsigned carrier key")
    p.add_argument("--no-orthonormalize", dest="orthonormalize",
                   action="store_false",
                   help="use raw gaussian carriers instead of an orthonormal family")
    p.add_argument("--bound-n", type=float, default=10.0,
                   help="strategy component bound N")


def _add_analyze_options(p: argparse.ArgumentParser, verdict=True) -> None:
    p.add_argument("--nv", type=int, default=8)
    p.add_argument("--bound-n", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None,
                   help="randomization seed (default: $CHAOSMARK_SEED or 0)")
    if verdict:
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and reused by every main call.
    Handlers given to set_defaults are bound at that first build, so a test
    that patches cli._cmd_* or an analysis must call cache_clear() first."""
    parser = argparse.ArgumentParser(
        prog="chaosmark",
        description="Spread-spectrum data hiding run as a dynamical system, "
                    "with constructive chaos witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="hide a message in a host vector")
    _add_scheme_options(p_embed)
    p_embed.add_argument("--host", required=True,
                         help="host vector file (.json, .csv, or .pgm)")
    p_embed.add_argument("--message", default=None,
                         help="bit string (0101 / 0b0101) or hex (0x2a)")
    p_embed.add_argument("--message-file", default=None)
    p_embed.add_argument("--out", required=True,
                         help="stego vector file (.json or .csv)")
    p_embed.add_argument("--meta", default=None,
                         help="metadata record path (default: <out>.meta.json)")
    p_embed.set_defaults(func=_cmd_embed)

    p_dec = sub.add_parser("decode", help="recover a message from a stego vector")
    _add_scheme_options(p_dec)
    p_dec.add_argument("--stego", required=True)
    p_dec.add_argument("--out", default=None, help="also write a JSON record here")
    p_dec.set_defaults(func=_cmd_decode)

    p_an = sub.add_parser("analyze", help="chaos witnesses, traces, and scans")
    an_sub = p_an.add_subparsers(dest="analysis", required=True)

    p = an_sub.add_parser("sensitivity", help="constructive sensitivity witness")
    _add_analyze_options(p)
    p.add_argument("--r", type=float, required=True, help="ball radius")
    p.set_defaults(func=_cmd_analyze, analyze=_sensitivity)

    p = an_sub.add_parser("transitivity", help="constructive strong-transitivity witness")
    _add_analyze_options(p)
    p.add_argument("--r-a", type=float, required=True, help="source ball radius")
    p.set_defaults(func=_cmd_analyze, analyze=_transitivity)

    p = an_sub.add_parser("regularity", help="periodic-approximation witness")
    _add_analyze_options(p)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_analyze, analyze=_regularity)

    p = an_sub.add_parser("expansivity", help="non-expansivity counterexample")
    _add_analyze_options(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(func=_cmd_analyze, analyze=_expansivity)

    p = an_sub.add_parser("continuity", help="shrinking-perturbation probe")
    _add_analyze_options(p)
    p.add_argument("--scales", default=_DEFAULT_SCALES,
                   help="comma-separated strictly decreasing positive scales")
    p.set_defaults(func=_cmd_analyze, analyze=_continuity)

    p = an_sub.add_parser("scan", help="randomized in-ball separation scan")
    _add_analyze_options(p, verdict=False)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=_cmd_analyze, analyze=_scan)

    p = an_sub.add_parser("trace", help="orbit divergence trace")
    _add_analyze_options(p, verdict=False)
    p.add_argument("--pair", choices=("sensitivity", "expansivity", "random"),
                   default="sensitivity")
    p.add_argument("--r", type=float, default=0.1,
                   help="radius for the sensitivity pair")
    p.add_argument("--eps", type=float, default=0.5,
                   help="eps for the expansivity pair")
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(func=_cmd_analyze, analyze=_trace)

    p_tm = sub.add_parser("tm", help="run a Turing machine description")
    p_tm.add_argument("--machine", required=True, help="machine description file")
    p_tm.add_argument("--tape", default=None, help="inline tape string")
    p_tm.add_argument("--tape-file", default=None, help="file holding the tape string")
    p_tm.add_argument("--head", type=int, default=0)
    p_tm.add_argument("--max-steps", type=int, default=1000)
    p_tm.add_argument("--format", choices=("json", "csv"), default="json")
    p_tm.add_argument("--out", default=None)
    p_tm.set_defaults(func=_cmd_tm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # numpy would warn on overflow before the finiteness checks raise
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (FormatError, MachineParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError, OverflowError) as exc:
        # Python's own allocations raise MemoryError() with no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
