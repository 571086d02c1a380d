"""Command-line interface.

Exit codes: 0 verified (or tight, as expected), 1 violation found,
2 invalid input, 3 capacity exceeded or a campaign left instances
unverified, 4 an internal certificate failed.
File arguments accept "-" for stdin.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .concentration import atom_nd
from .errors import CapacityError, CertificateError, InputError
from .exactnum import format_rational, lo_bound, parse_int, parse_rational
from .norms import parse_norm
from .reduction import (format_instance, format_report, parse_instance,
                        verify_instance)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _check_writable(out: str) -> None:
    """Raise the OSError that writing out would raise, before a long
    run ends in it; a file this check creates is removed again."""
    path = Path(out)
    existed = path.exists()
    with path.open("a"):
        pass
    if not existed:
        path.unlink()


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# lo_bound at n = 10,000 takes milliseconds and 2^n has 3,011 digits.
# From about n = 14,300 on, 2^n has more digits than str() converts
# (sys.get_int_max_str_digits(), 4,300 by default), and at n = 10^6
# math.comb alone takes over 10 s.
BOUND_N_LIMIT = 10_000


def _cmd_bound(args) -> int:
    n = parse_int(args.n)
    if n > BOUND_N_LIMIT:
        raise CapacityError(
            f"lo bound supports n up to {BOUND_N_LIMIT}, got {n}")
    q = lo_bound(n, parse_int(args.k))
    print(f"{format_rational(q)} = {float(q):.12g}")
    return 0


def _cmd_atom(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    print(format_rational(atom_nd(instance.vectors, instance.target)))
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    report = verify_instance(instance)
    _write_output(format_report(report, instance), args.out)
    return 0 if report.chain_holds else 1


def _cmd_extremal(args) -> int:
    from .campaign import gen_extremal
    instance = gen_extremal(parse_int(args.n), parse_norm(args.norm),
                            parse_rational(args.value))
    _write_output(format_instance(instance), args.out)
    return 0


_CAMPAIGN_EXIT = {"verified": 0, "violations-found": 1, "incomplete": 3}


def run_campaign(config):
    """campaign.run_campaign, imported on first call, so that only the
    campaign and extremal commands load the campaign module.
    _cmd_campaign looks this name up when it runs, so a caller may
    replace it."""
    from .campaign import run_campaign
    return run_campaign(config)


def _cmd_campaign(args) -> int:
    from .campaign import format_campaign_report, parse_campaign_config
    config = parse_campaign_config(_read_text(args.config))
    if args.workers is not None:
        config = config.replace(workers=parse_int(args.workers))
    if args.out:
        _check_writable(args.out)
    report = run_campaign(config)
    _write_output(format_campaign_report(report), args.out)
    if args.out:
        # Violations are first-class artifacts: each gets a replay file
        # next to the report.
        for i, violation in enumerate(report.violations, 1):
            Path(f"{args.out}.violation-{i}.instance").write_text(
                format_instance(violation.instance))
    print(f"instances={report.instances} violations={len(report.violations)} "
          f"errors={len(report.errors)} tight={report.tight} "
          f"wall={report.wall_time:.2f}s", file=sys.stderr)
    return _CAMPAIGN_EXIT[report.status]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lo",
        description="Exact sign-sum concentration bounds and their verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print the bound for n vectors at norm ceiling k")
    p.add_argument("n")
    p.add_argument("k")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("atom", help="exact atom probability of an instance file")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.set_defaults(func=_cmd_atom)

    p = sub.add_parser("verify", help="verify the full chain on an instance file")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="emit a tightness instance")
    p.add_argument("n")
    p.add_argument("norm", help="l1 | l2 | linf")
    p.add_argument("value", help="target norm value, e.g. 3/2")
    p.add_argument("--out", help="write the instance here instead of stdout")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("campaign", help="run a campaign from a config file")
    p.add_argument("config", help="campaign config file, or - for stdin")
    p.add_argument("--workers", help="override the configured worker count")
    p.add_argument("--out", help="write the report (and violation replays) here")
    p.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"error: certificate failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
