"""Command-line interface.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
Identical inputs and configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import (Complex, EngineLimitError, InvariantError, object_ceiling,
                        simplify, tautological_complex, tensor)
from .config import Config
from .homology import homology_mod_p, integer_homology, poincare_polynomial, \
    poincare_string
from .links import ColoredDiagram, link_homology
from .projectors import build_qn, q2, q3, quasi_projector, truncated_pn, \
    turnback_check
from .series import DEFAULT_PRECISION
from .tl import TLElement, euler_characteristic, jw
from .verify import run_suite


def _write(args, payload) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path: str, parse):
    """parse() of the JSON in `path`; a malformed structure is a usage error."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed file {path}: {exc}") from exc


def _load_complex(path: str) -> Complex:
    return _load(path, Complex.from_json)


def _tl_json(elem: TLElement) -> dict:
    precisions = [s.precision for s in elem.terms.values()]
    return {"n": elem.n,
            "window": min(precisions) if precisions else elem.precision,
            "terms": elem.to_json()}


def _homology_payload(groups, field: str, zc=None) -> dict:
    payload = {"groups": groups.to_json(),
               "poincare": poincare_string(poincare_polynomial(groups))}
    if field == "f2" and zc is not None:
        dims = homology_mod_p(zc, 2)
        payload["f2_dims"] = [{"h": h, "q": q, "dim": d}
                              for (h, q), d in sorted(dims.items())]
    return payload


def main(argv: list[str] | None = None) -> int:
    def global_flags(suppress: bool) -> argparse.ArgumentParser:
        d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--precision", type=int, default=d(DEFAULT_PRECISION))
        p.add_argument("--window", type=int, default=d(12))
        p.add_argument("--seed", type=int, default=d(0))
        p.add_argument("--out", type=str, default=d(None))
        p.add_argument("--format", choices=("json", "table"), default=d("json"))
        return p

    # the same flags are accepted before or after the subcommand; the leaf
    # copies suppress their defaults so they never clobber earlier values
    common = global_flags(suppress=True)
    parser = argparse.ArgumentParser(
        prog="catsl2", parents=[global_flags(suppress=False)],
        description="Exact chain-complex engine for categorified "
                    "Jones-Wenzl projectors and colored sl2 link homology")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, **kwargs):
        return group.add_parser(name, parents=[common], **kwargs)

    tl = sub.add_parser("tl", help="Temperley-Lieb computations")
    tlsub = tl.add_subparsers(dest="tl_command", required=True)
    tl_jw = leaf(tlsub, "jw", help="Jones-Wenzl projector")
    tl_jw.add_argument("--n", type=int, required=True)
    tl_euler = leaf(tlsub, "euler", help="Euler characteristic of a complex")
    tl_euler.add_argument("--complex", type=str, required=True)

    cx = sub.add_parser("complex", help="chain complex operations")
    cxsub = cx.add_subparsers(dest="cx_command", required=True)
    leaf(cxsub, "simplify").add_argument("file")
    cx_tensor = leaf(cxsub, "tensor")
    cx_tensor.add_argument("a")
    cx_tensor.add_argument("b")
    leaf(cxsub, "check").add_argument("file")

    proj = sub.add_parser("proj", help="projector complexes")
    projsub = proj.add_subparsers(dest="proj_command", required=True)
    for name in ("q2", "q3"):
        leaf(projsub, name)
    proj_qn = leaf(projsub, "qn", help="convolution-solved Q_n")
    proj_qn.add_argument("--n", type=int, required=True)
    proj_pn = leaf(projsub, "pn", help="truncated projector")
    proj_pn.add_argument("--n", type=int, required=True)
    proj_quasi = leaf(projsub, "quasi")
    proj_quasi.add_argument("--n", type=int, required=True)
    proj_quasi.add_argument("--indices", type=str, default="")
    leaf(projsub, "turnback").add_argument("file")

    hom = leaf(sub, "homology", help="integer homology of a closed complex")
    hom.add_argument("file")
    hom.add_argument("--field", choices=("z", "f2"), default="z")

    colored = sub.add_parser("colored", help="colored link homology")
    colsub = colored.add_subparsers(dest="colored_command", required=True)
    leaf(colsub, "homology").add_argument("file")

    ver = leaf(sub, "verify", help="run the acceptance suite")
    ver.add_argument("--suite", type=str, default=None)

    args = parser.parse_args(argv)
    try:
        cfg = Config(precision=args.precision, window=args.window, seed=args.seed,
                     format=args.format)
        return _dispatch(args, cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:  # e.g. d^2 != 0 in `complex check`
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineLimitError as exc:
        print(f"error: {exc} (QPE_MAX_OBJECTS={object_ceiling()})", file=sys.stderr)
        return 1


def _dispatch(args, cfg: Config) -> int:
    if args.command == "tl":
        if args.tl_command == "jw":
            _write(args, _tl_json(jw(args.n, cfg.precision)))
        else:
            c = _load_complex(getattr(args, "complex"))
            _write(args, _tl_json(euler_characteristic(c, cfg.precision)))
        return 0

    if args.command == "complex":
        if args.cx_command == "simplify":
            c, _ = simplify(_load_complex(args.file))
            _write(args, c.to_json())
        elif args.cx_command == "tensor":
            _write(args, tensor(_load_complex(args.a),
                                _load_complex(args.b)).to_json())
        else:
            c = _load_complex(args.file)
            c.check()
            _write(args, {"ok": True, "objects": c.total_objects(),
                          "degrees": [c.h_min(), c.h_max()]})
        return 0

    if args.command == "proj":
        if args.proj_command == "q2":
            _write(args, q2().to_json())
        elif args.proj_command == "q3":
            _write(args, q3().to_json())
        elif args.proj_command == "qn":
            built = build_qn(args.n, cfg.window)
            payload = built.complex.to_json()
            payload["valid_h_min"] = built.valid_h_min
            _write(args, payload)
        elif args.proj_command == "pn":
            proj = truncated_pn(args.n, cfg.window)
            payload = proj.complex.to_json()
            payload["window"] = proj.window
            _write(args, payload)
        elif args.proj_command == "quasi":
            try:
                indices = tuple(map(int, args.indices.split(","))) if args.indices else ()
            except ValueError:
                raise ValueError("indices: expected comma-separated integers, "
                                 f"got {args.indices!r}") from None
            built = quasi_projector(args.n, indices, cfg.window)
            payload = built.complex.to_json()
            payload["valid_h_min"] = built.valid_h_min
            _write(args, payload)
        else:
            c = _load_complex(args.file)
            _write(args, turnback_check(c))
        return 0

    if args.command == "homology":
        c = _load_complex(args.file)
        if c.n != 0:
            raise ValueError("homology needs a closed (0-strand) complex")
        c, _ = simplify(c)
        zc = tautological_complex(c)
        groups = integer_homology(zc)
        _write(args, _homology_payload(groups, args.field, zc))
        return 0

    if args.command == "colored":
        diagram = _load(args.file, ColoredDiagram.from_json)
        groups, exact = link_homology(diagram, cfg.window)
        payload = _homology_payload(groups, "z")
        payload["exact"] = exact
        payload["marks"] = list(diagram.marks)
        if cfg.format == "table":
            lines = [f"{'h':>5} {'q':>5} {'rank':>5}  torsion"]
            for row in payload["groups"]:
                lines.append(f"{row['h']:>5} {row['q']:>5} {row['rank']:>5}  "
                             f"{row['torsion'] or ''}")
            _write(args, "\n".join(lines))
        else:
            _write(args, payload)
        return 0

    if args.command == "verify":
        results = run_suite(cfg, only=args.suite)
        bad = [r for r in results if not r.ok or not r.within_budget]
        return 1 if bad else 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
