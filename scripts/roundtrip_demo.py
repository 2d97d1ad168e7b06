#!/usr/bin/env python3
"""Embed and decode a random message with each scheme, reporting distortion.

Exits 1 if any scheme decodes a bit wrong.
"""

import argparse

import numpy as np

from chaosmark import SchemeConfig, decode, embed, generate_carriers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nv", type=int, default=64)
    parser.add_argument("--nc", type=int, default=16)
    parser.add_argument("--key", type=int, default=42)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    host = rng.standard_normal(args.nv)
    bits = rng.integers(0, 2, size=args.nc)
    base = dict(nv=args.nv, nc=args.nc, key=args.key)

    carriers = generate_carriers(SchemeConfig(**base))
    # ss needs its amplitude above the largest host projection to decode
    gamma = 1.0 + float(np.max(np.abs(carriers.matrix @ host)))
    configs = [
        ("ss", SchemeConfig(**base, gamma=gamma)),
        ("iss", SchemeConfig(**base, alpha=1.0, lam=1.0)),
        ("nw", SchemeConfig(**base, eta=0.8)),
    ]

    print(f"message: {''.join(str(b) for b in bits)}")
    total_errors = 0
    for scheme, cfg in configs:
        stego = embed(host, bits, carriers, cfg, scheme)
        result = decode(stego, carriers, scheme)
        errors = int(np.sum(result.bits != bits))
        total_errors += errors
        distortion = float(np.max(np.abs(stego - host)))
        print(f"{scheme:4s} bit errors: {errors}  "
              f"distortion_inf: {distortion:.4f}  "
              f"decoded: {''.join(str(b) for b in result.bits)}")
    return 1 if total_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
