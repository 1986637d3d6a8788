"""Command-line front end.

Exit codes: 0 success / positive verdict, 1 negative verdict (circuit shown
not to compute the operator, or a clean-computation check failed), 2 usage or
input error (out of memory included), 3 internal invariant breach.

``--circuit -`` reads the circuit document from standard input, so commands
compose: ``qshallow build parity-logdepth --n 8 | qshallow verify --circuit -
--against parity``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_args

from ._version import __version__
from .adversary import InvariantError, Mode, certificate_to_json, parity_certificate
from .circuits import (
    Circuit,
    CircuitFormatError,
    MeasurementSpec,
    is_single_qubit_z_circuit,
    parse_circuit,
    rewrite_toffoli_to_z,
    serialize_circuit,
    validate,
)
from .lightcone import check_depth_bound
from .reference import (
    OpKind,
    ReferenceOp,
    build_parity_logdepth,
    conjugate_parity_to_fanout,
    tradeoff_bound,
)
from .sim import full_input_state, read_target, run
from .verify import verify_clean

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


def _read_circuit(path: str) -> Circuit:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_circuit(text)


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _parse_bits(raw: str) -> list[int]:
    bits = []
    for ch in raw:
        if ch not in "01":
            raise ValueError(f"input bitstring must be over 0/1, got {raw!r}")
        bits.append(int(ch))
    return bits


def cmd_simulate(args: argparse.Namespace) -> int:
    c = _read_circuit(args.circuit)
    bits = _parse_bits(args.input)
    assignment: dict[int, int]
    if len(bits) == c.n:
        assignment = dict(enumerate(bits))
    elif len(bits) == c.n - 1 and c.target < c.n:
        non_target = [w for w in range(c.n) if w != c.target]
        assignment = dict(zip(non_target, bits))
    else:
        raise ValueError(
            f"input length {len(bits)} does not match the {c.n} input wires"
            f" (or {c.n - 1} with the target omitted)"
        )
    out = run(c, full_input_state(c, assignment))
    reading = read_target(out, MeasurementSpec(c.target))
    print(f"target p1 = {reading.p1:.6f}")
    if c.wires <= 12:
        print(f"amplitudes over wires 0..{c.wires - 1} (wire 0 = least significant bit):")
        for index, amp in enumerate(out.amps):
            print(f"  |{index:0{c.wires}b}>  {amp.real:+.10f} {amp.imag:+.10f}j")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    c = _read_circuit(args.circuit)
    result = verify_clean(c, ReferenceOp(args.against, c.n - 1), strict_phase=args.strict)
    print(f"against: {args.against}")
    print(f"basis inputs checked: {result.checked}")
    print(f"max deviation: {result.max_deviation:.3e}")
    if result.ok:
        print("verdict: clean computation confirmed")
        return EXIT_OK
    print(f"verdict: NOT a clean {args.against} computation")
    print(f"first failure: {result.first_failure}")
    return EXIT_NEGATIVE


def cmd_lightcone(args: argparse.Namespace) -> int:
    c = _read_circuit(args.circuit)
    verdict = check_depth_bound(c, args.against)
    report = verdict.report
    for i, s in enumerate(report.sets, start=1):
        print(f"S_{i} (|.| <= {report.max_arity}^{i}): {sorted(s)}")
    print(f"free inputs: {list(report.free_inputs)}")
    print(
        f"arity-depth trigger k^d < n: {report.max_arity}^{verdict.depth} < {verdict.n}"
        f" is {str(verdict.bound_triggered).lower()}"
    )
    if verdict.flip_wire is None:
        print("no counterexample: lightcone covers every input")
        return EXIT_OK
    print(
        f"counterexample: free input {verdict.flip_wire} lies outside the target's"
        f" backward cone, so flipping it leaves the circuit's target reading"
        f" unchanged, while {args.against} flips it"
    )
    print(f"verdict: {verdict.verdict}")
    return EXIT_NEGATIVE


def cmd_adversary(args: argparse.Namespace) -> int:
    c = _read_circuit(args.circuit)
    if not is_single_qubit_z_circuit(c):
        print("note: rewriting Toffoli/Cnot gates to their H-Z-H form first")
        c = rewrite_toffoli_to_z(c)
    cert = parity_certificate(c, args.mode, args.against)
    text = certificate_to_json(cert)
    if args.out:
        _write_output(text, args.out)
        print(f"certificate written to {args.out}")
    else:
        print(text)
    print(f"committed wires: {list(cert.history[-1].committed)}")
    print(f"free input: {cert.free_input}")
    print(f"verdict: {cert.verdict}")
    return EXIT_OK if cert.verdict == "inconclusive" else EXIT_NEGATIVE


def cmd_bound(args: argparse.Namespace) -> int:
    bound = tradeoff_bound(args.n, args.a, args.gate)
    print(
        f"{args.gate} on n = {args.n} bits with a = {args.a} ancillae:"
    )
    print(
        f"  unbounded-Toffoli model (lower bound from the witness argument):"
        f" d ≥ {bound.unbounded_gate_depth:.2f}"
    )
    print(
        "    (d counts single-qubit + Z layers, after rewrite_toffoli_to_z"
        " turns each Toffoli/Cnot layer into three)"
    )
    print(
        f"  bounded-arity model (lower bound from the lightcone argument):"
        f" d ≥ {bound.bounded_gate_depth:.2f}"
    )
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    if args.construction == "parity-logdepth":
        c = build_parity_logdepth(args.n)
    else:  # fanout-via-parity
        c = conjugate_parity_to_fanout(build_parity_logdepth(args.n))
    _write_output(serialize_circuit(c), args.out)
    return EXIT_OK


def cmd_rewrite(args: argparse.Namespace) -> int:
    c = _read_circuit(args.circuit)
    if args.rule == "t2hzh":
        c = rewrite_toffoli_to_z(c)
    else:  # conjugate-fanout
        c = conjugate_parity_to_fanout(c)
    violations = validate(c)
    if violations:
        raise InvariantError("rewrite produced an invalid circuit: " + "; ".join(violations))
    _write_output(serialize_circuit(c), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshallow",
        description="Analyze shallow layered quantum circuits: simulate, verify"
        " against parity/fanout, and produce depth lower-bound certificates.",
    )
    parser.add_argument("--version", action="version", version=f"qshallow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a circuit on a basis input")
    p.add_argument("--circuit", required=True, help="circuit JSON path, or - for stdin")
    p.add_argument("--input", required=True, help="bitstring over the input wires")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="brute-force clean-computation check")
    p.add_argument("--circuit", required=True)
    p.add_argument("--against", choices=get_args(OpKind), required=True)
    p.add_argument("--strict", action="store_true", help="forbid global-phase slack")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lightcone", help="influence-set analysis and counterexample")
    p.add_argument("--circuit", required=True)
    p.add_argument("--against", choices=get_args(OpKind), default="parity")
    p.set_defaults(func=cmd_lightcone)

    p = sub.add_parser("adversary", help="gate-killing witness and certificate")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=get_args(Mode), default="improved")
    p.add_argument("--against", choices=get_args(OpKind), default="parity")
    p.add_argument("--out", help="certificate file path (stdout when omitted)")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("bound", help="evaluate the depth lower-bound formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--gate", choices=get_args(OpKind), required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("build", help="emit a reference construction")
    p.add_argument("construction", choices=("parity-logdepth", "fanout-via-parity"))
    p.add_argument("--n", type=int, required=True, help="number of summed/fanned bits")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("rewrite", help="apply a circuit rewrite")
    p.add_argument("--circuit", required=True)
    p.add_argument("--rule", choices=("t2hzh", "conjugate-fanout"), required=True)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_rewrite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CircuitFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
