"""chaosmark command line interface.

Four command families:

    chaosmark embed    hide a message in a host vector
    chaosmark decode   recover a message from a stego vector
    chaosmark analyze  run chaos witnesses, traces, and scans
    chaosmark tm       run a Turing machine description

Exit codes: 0 success (and witness verdict true), 1 witness verdict
false, 2 usage or parameter error, 3 I/O or parse error.  Reports are
emitted with sorted keys and stable float formatting, so identical
inputs produce byte-identical reports; every report embeds the full
effective configuration.  Where randomness is needed the seed comes
from --seed, falling back to the CHAOSMARK_SEED environment variable,
then 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .chaos_analysis import (
    OrbitTrace,
    WitnessReport,
    continuity_probe,
    continuity_report,
    divergence_trace,
    empirical_sensitivity_scan,
    expansivity_counterexample,
    expansivity_pair,
    phase_point_to_dict,
    random_phase_point,
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
    load_machine,
    tm_run,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_IO = 3

_DEFAULT_SCALES = "0.1,0.01,0.001,0.0001,1e-05,1e-06"


def _default_seed() -> int:
    raw = os.environ.get("CHAOSMARK_SEED", "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CHAOSMARK_SEED must be an integer, got {raw!r}")


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _emit(payload: dict, fmt: str, out, kind: str = "kv") -> None:
    if fmt == "json":
        text = fileio.render_json(payload)
    elif kind == "trace":
        text = fileio.render_trace_csv(payload)
    else:
        text = fileio.render_kv_csv(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------- embed / decode ----------

def _scheme_config(args, nv: int, nc: int) -> SchemeConfig:
    return SchemeConfig(
        nv=nv,
        nc=nc,
        gamma=args.gamma,
        alpha=args.alpha,
        lam=args.lam,
        eta=args.eta,
        key=args.key,
        orthonormalize=args.orthonormalize,
        bound_n=args.bound_n,
    )


def _scheme_config_dict(cfg: SchemeConfig, scheme: str) -> dict:
    return {
        "scheme": scheme,
        "nv": cfg.nv,
        "nc": cfg.nc,
        "gamma": cfg.gamma,
        "alpha": cfg.alpha,
        "lambda": cfg.lam,
        "eta": cfg.eta,
        "key_fingerprint": fileio.key_fingerprint(cfg.key),
        "orthonormalize": cfg.orthonormalize,
        "bound_n": cfg.bound_n,
    }


def _resolve_message(args) -> tuple[str, int | None]:
    if args.message is not None and args.message_file is not None:
        raise ValueError("give either --message or --message-file, not both")
    if args.message is not None:
        text = args.message
    elif args.message_file is not None:
        text = fileio.read_text(args.message_file)
    else:
        raise ValueError("a message is required: --message or --message-file")
    text = text.strip()
    if args.nc is not None:
        return text, args.nc
    if text.lower().startswith("0x"):
        raise ValueError("--nc is required when the message is hex")
    return text, len(text[2:] if text.lower().startswith("0b") else text)


def _cmd_embed(args) -> int:
    host = fileio.read_vector(args.host)
    nv = args.nv if args.nv is not None else int(host.size)
    if host.size != nv:
        raise ValueError(f"host has {host.size} components but --nv is {nv}")
    text, nc = _resolve_message(args)
    bits = fileio.parse_message_text(text, nc)
    cfg = _scheme_config(args, nv, nc)
    carriers = generate_carriers(cfg)
    stego = embed(host, bits, carriers, cfg, args.scheme)
    fileio.write_vector(args.out, stego)

    meta = {
        "schema": fileio.SCHEMA,
        "command": "embed",
        "config": _scheme_config_dict(cfg, args.scheme),
        "host": str(args.host),
        "stego": str(args.out),
        "distortion_inf": d_inf(stego, host),
    }
    meta_path = args.meta if args.meta else f"{args.out}.meta.json"
    Path(meta_path).write_text(fileio.render_json(meta), encoding="utf-8")
    print(f"embedded {nc} bits with {args.scheme} into {args.out} "
          f"(distortion_inf={meta['distortion_inf']!r}, meta={meta_path})")
    return EXIT_OK


def _cmd_decode(args) -> int:
    stego = fileio.read_vector(args.stego)
    nv = args.nv if args.nv is not None else int(stego.size)
    if stego.size != nv:
        raise ValueError(f"stego has {stego.size} components but --nv is {nv}")
    if args.nc is None:
        raise ValueError("--nc is required to decode")
    cfg = _scheme_config(args, nv, args.nc)
    carriers = generate_carriers(cfg)
    result = decode(stego, carriers, cfg, args.scheme)
    bitstring = fileio.bits_to_string(result.bits)
    if args.out:
        payload = {
            "schema": fileio.SCHEMA,
            "command": "decode",
            "config": _scheme_config_dict(cfg, args.scheme),
            "stego": str(args.stego),
            "bits": bitstring,
            "ties": list(result.ties),
        }
        Path(args.out).write_text(fileio.render_json(payload), encoding="utf-8")
    print(bitstring)
    if result.ties:
        print(f"warning: zero projection on carriers {list(result.ties)}; "
              f"those bits defaulted to 0", file=sys.stderr)
    return EXIT_OK


# ---------- analyze ----------

def _space_of(args) -> SpaceConfig:
    return SpaceConfig(nv=args.nv, bound_n=args.bound_n)


def _analyze_config(args, space: SpaceConfig, seed: int, **extra) -> dict:
    cfg = {
        "nv": space.nv,
        "bound_n": space.bound_n,
        "seed": seed,
        "tolerance": args.tolerance,
    }
    cfg.update(extra)
    return cfg


def _witness_exit(report: WitnessReport) -> int:
    return EXIT_OK if report.verdict else EXIT_FALSE


def _emit_witness(args, command: str, config: dict, report: WitnessReport,
                  trace: OrbitTrace | None = None) -> int:
    payload = {
        "schema": fileio.SCHEMA,
        "command": command,
        "config": config,
        "report": report.to_dict(),
    }
    if trace is not None:
        payload["trace"] = trace.to_dict()
    _emit(payload, args.format, args.out)
    return _witness_exit(report)


def _cmd_sensitivity(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    x = random_phase_point(seed, space)
    report = witness_sensitivity(x, args.r, space, args.tolerance)
    config = _analyze_config(args, space, seed, r=args.r)
    return _emit_witness(args, "analyze sensitivity", config, report)


def _cmd_transitivity(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    x_a = random_phase_point(rng, space)
    x_b = random_phase_point(rng, space)
    report = witness_strong_transitivity(x_a, args.r_a, x_b, space,
                                         args.tolerance)
    config = _analyze_config(args, space, seed, r_a=args.r_a)
    return _emit_witness(args, "analyze transitivity", config, report)


def _cmd_regularity(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    x = random_phase_point(seed, space)
    report = witness_regularity(x, args.eps, space, args.tolerance)
    config = _analyze_config(args, space, seed, eps=args.eps)
    return _emit_witness(args, "analyze regularity", config, report)


def _cmd_expansivity(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    report = expansivity_counterexample(args.eps, args.n_max, space,
                                        args.tolerance)
    if not report.measured["eps_bound_holds"]:
        print(f"note: sup distance {report.measured['sup_distance']!r} "
              f"exceeds eps={args.eps!r} (bound_n={args.bound_n!r} < 10); "
              f"the derived bound still holds", file=sys.stderr)
    config = _analyze_config(args, space, seed, eps=args.eps, n_max=args.n_max)
    return _emit_witness(args, "analyze expansivity", config, report)


def _cmd_continuity(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
    x = random_phase_point(seed, space)
    trace = continuity_probe(x, scales, space)
    report = continuity_report(x, trace, args.tolerance)
    config = _analyze_config(args, space, seed, scales=scales)
    return _emit_witness(args, "analyze continuity", config, report, trace)


def _cmd_scan(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    x = random_phase_point(seed, space)
    value = empirical_sensitivity_scan(x, args.r, args.trials, args.n_max,
                                       seed, space)
    config = _analyze_config(args, space, seed, r=args.r, trials=args.trials,
                             n_max=args.n_max)
    payload = {
        "schema": fileio.SCHEMA,
        "command": "analyze scan",
        "config": config,
        "result": {
            "max_separation": value,
            "start_point": phase_point_to_dict(x),
        },
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _cmd_trace(args) -> int:
    space = _space_of(args)
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    x = random_phase_point(rng, space)
    if args.pair == "sensitivity":
        y = witness_sensitivity(x, args.r, space).constructed_point
    elif args.pair == "expansivity":
        x, y = expansivity_pair(args.eps, space)
    else:
        y = random_phase_point(rng, space)
    trace = divergence_trace(x, y, args.n_max, space)
    config = _analyze_config(args, space, seed, pair=args.pair, r=args.r,
                             eps=args.eps, n_max=args.n_max)
    payload = {
        "schema": fileio.SCHEMA,
        "command": "analyze trace",
        "config": config,
        "trace": trace.to_dict(),
    }
    _emit(payload, args.format, args.out, kind="trace")
    return EXIT_OK


# ---------- tm ----------

def _cmd_tm(args) -> int:
    machine = load_machine(args.machine)
    if args.tape is not None and args.tape_file is not None:
        raise ValueError("give either --tape or --tape-file, not both")
    if args.tape_file is not None:
        tape = fileio.read_text(args.tape_file).strip()
    else:
        tape = args.tape or ""
    config = initial_configuration(machine, tape, args.head)
    result = tm_run(machine, config, args.max_steps)
    payload = {
        "schema": fileio.SCHEMA,
        "command": "tm",
        "config": {
            "machine": str(args.machine),
            "tape": tape,
            "head": args.head,
            "max_steps": args.max_steps,
        },
        "result": result.to_dict(machine),
    }
    if args.out or args.format == "csv":
        _emit(payload, args.format, args.out)
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


def _add_analyze_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nv", type=int, default=8)
    p.add_argument("--bound-n", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None,
                   help="randomization seed (default: $CHAOSMARK_SEED or 0)")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=_cmd_sensitivity)

    p = an_sub.add_parser("transitivity", help="constructive strong-transitivity witness")
    _add_analyze_options(p)
    p.add_argument("--r-a", type=float, required=True, help="source ball radius")
    p.set_defaults(func=_cmd_transitivity)

    p = an_sub.add_parser("regularity", help="periodic-approximation witness")
    _add_analyze_options(p)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_regularity)

    p = an_sub.add_parser("expansivity", help="non-expansivity counterexample")
    _add_analyze_options(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(func=_cmd_expansivity)

    p = an_sub.add_parser("continuity", help="shrinking-perturbation probe")
    _add_analyze_options(p)
    p.add_argument("--scales", default=_DEFAULT_SCALES,
                   help="comma-separated strictly decreasing positive scales")
    p.set_defaults(func=_cmd_continuity)

    p = an_sub.add_parser("scan", help="randomized in-ball separation scan")
    _add_analyze_options(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=_cmd_scan)

    p = an_sub.add_parser("trace", help="orbit divergence trace")
    _add_analyze_options(p)
    p.add_argument("--pair", choices=("sensitivity", "expansivity", "random"),
                   default="sensitivity")
    p.add_argument("--r", type=float, default=0.1,
                   help="radius for the sensitivity pair")
    p.add_argument("--eps", type=float, default=0.5,
                   help="eps for the expansivity pair")
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(func=_cmd_trace)

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
        return args.func(args)
    except (FormatError, MachineParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
