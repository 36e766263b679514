"""Command-line surface: train, eval, sample, bench, verify.

The arguments are parsed before anything else of balora loads: ``--help``,
``<command> --help`` and usage errors (exit 2) end in argparse and load no
numpy. The commands themselves, their manifests and their exit codes live
in :mod:`balora.commands`, imported once the arguments parse.
"""

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balora",
        description="Bayesian low-rank adaptation: train, evaluate, sample, "
                    "benchmark, and verify against brute-force oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="pretrain a backbone and train adapters")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the task test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", default=None,
                        help="task config; defaults to the one stored in the checkpoint")
    p_eval.add_argument("--mode", choices=("deterministic", "mc"), default="mc")
    p_eval.add_argument("--mc-steps", type=int, default=None,
                        help="MC draws; defaults to mc_steps of the config in use")
    p_eval.add_argument("--csv", action="store_true")
    p_eval.add_argument("--out", required=True)

    p_sample = sub.add_parser("sample", help="draw stochastic outputs for one input")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=int, default=16)
    p_sample.add_argument("--input", default=None)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="time low-rank vs dense-covariance sampling")
    p_bench.add_argument("--k-range", default="64,128,256,512,1024,2048")
    p_bench.add_argument("--r", type=int, default=8)
    p_bench.add_argument("--samples", type=int, default=4096,
                         help="draws per timed call on the low-rank arm; the dense "
                              "arm caps at 256 so factorization cost dominates")
    p_bench.add_argument("--reps", type=int, default=9)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_verify.add_argument("--filter", default="")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="oracle seed (default: balora.verify.DEFAULT_SEED)")
    p_verify.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import commands
    return commands.run(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
