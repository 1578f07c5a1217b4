"""Command line entry point: verify / construct / extract / scan / replay.

Exit codes: 0 all-pass, 1 usage or I/O error, 2 any violation of a proved
statement (or a replay mismatch).  Artifacts are deterministic given the
seed; rationals travel as exact "p/q" strings with decimal shadows beside
them.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from .constructions import (
    EMIT_CAP,
    build_from_reference,
    build_sharpness_instance,
    load_instance,
)
from .context import InstanceContext
from .errors import CapError, ConsistencyError, SpecError
from .extract import certify, threshold_trace, with_b
from .groups import WeightedGroup
from .harness import (
    ALL_SUITES,
    MAX_PAIRS,
    ExtractResults,
    Fragment,
    InstanceReport,
    ScanConfig,
    _selected,
    csv_row,
    parse_alphas,
    replay,
    report_csv,
    scan,
)
from .metrics import DoublingStats, QuotientDoublingCheck
from .quotients import quotient_from_description
from .rationals import fmt
from .sets import decode_subset

_EXHAUSTIVE_DEFAULT_LIMIT = 12
_ONE_PROCESS = "accepted as 1 only: a scan runs in one process"


def _arg_file(path: str, flag: str) -> str:
    """The text of the UTF-8 file at path, given as `flag`; a file that cannot
    be read or is not UTF-8 is a SpecError naming the flag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecError(flag, f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecError(flag, f"{path!r} is not UTF-8: {exc}") from None


def _maybe_inline_json(text: str, flag: str):
    """Accept @file.json or an inline JSON string.  Text that is not JSON, or
    nests too deeply for the parser, is a SpecError naming `flag`."""
    if text.startswith("@"):
        text = _arg_file(text[1:], flag)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SpecError(flag, f"not valid JSON: {exc}") from None


def _read_json(path: str, flag: str):
    return _maybe_inline_json("@" + path, flag)


_CHUNK = 1 << 16  # characters that `_write` holds before they go to the file
_MEMO = 4096  # entries that `_write`'s memo holds before it starts over
_BATCH = 128  # reports that a `_Spool` holds before `_write` renders them
_RECORDS = frozenset((Fragment, ExtractResults, QuotientDoublingCheck, DoublingStats))


class _Spool(list):
    """An emitting scan's `emit`: renders each batch of `_BATCH` reports, one by one, into `file`, an
    anonymous temporary file, for `_write` to copy in as the top-level "instances"; `rows` gets each `csv_row`."""

    def __init__(self, file, rows) -> None:
        self.file, self.rows, self.memo, self.sep = file, rows, {}, "[\n    "

    def __call__(self, rep: InstanceReport) -> None:
        self.append(rep)
        if self.rows is not None:
            self.rows.write(csv_row(rep))
        if len(self) == _BATCH:
            self.flush()

    def flush(self) -> None:
        out, held = [], 0
        for rep in self:
            out.append(self.sep)
            held = _write(rep.to_json(True), "\n    ", out, self.file, self.memo, held + len(self.sep))
            self.sep = ",\n    "
        self.file.write("".join(out))
        self.clear()


_NESTED = frozenset((dict, list, tuple, _Spool)) | _RECORDS


def _dump(doc, fh, end: str = "") -> None:
    """Write `json.dumps(doc, sort_keys=True, indent=2)` and `end` to fh,
    about `_CHUNK` characters at a time.

    json has no C encoder for indented output; `_write` makes the same text.
    It knows dicts with str keys, lists, tuples, str, int, finite float, bool
    and None (exact types), a `_Spool`, and the records that
    `InstanceReport.to_json(True)` leaves: each distinct one is rendered once
    per artifact, up to the memo bound, as a results table hands one record to
    many instances.  The memo is keyed on the record's value, sound as each
    field of a record type holds one exact type (True == 1 would otherwise
    share a text).  Anything else is a TypeError."""
    out: list = []
    _write(doc, "\n", out, fh, {})
    fh.write("".join(out) + end)


def _write(x, nl: str, out: list, fh, memo: dict, held: int = 0) -> int:
    """Append x, whose line starts with `nl` (newline and indent), to out,
    which holds `held` characters, and return how many it holds then.  out
    goes to fh first if it holds `_CHUNK` or more and fh is not None; `memo`
    maps (record type, record, nl) to its text and (nl, *keys) to the sorted keys' texts, `_MEMO` at most."""
    if held >= _CHUNK and fh is not None:
        fh.write("".join(out))
        out.clear()
        held = 0
    t = type(x)
    if t in _RECORDS:
        text = memo.get(key := (t, x, nl))
        if text is None:
            part: list = []
            _write(x.to_json(), nl, part, None, memo)
            if len(memo) > _MEMO:
                memo.clear()
            text = memo[key] = "".join(part)
        out.append(text)
        return held + len(text)
    if t is dict:
        if not x:
            out.append("{}")
            return held + 2
        inner = nl + "  "
        shape = memo.get(key := (nl, *x)) or memo.setdefault(
            key, [(k, ("," if i else "{") + inner + _quote(k) + ": ") for i, k in enumerate(sorted(x))])
        for k, s in shape:
            v = x[k]
            if type(v) in _NESTED:
                out.append(s)
                held = _write(v, inner, out, fh, memo, held + len(s))
            else:
                out.append(s := s + _leaf(v))
                held += len(s)
        out.append(nl + "}")
        return held + len(nl) + 1
    if t is list or t is tuple:
        if not x:
            out.append("[]")
            return held + 2
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            if type(v) in _NESTED:
                out.append(sep)
                held = _write(v, inner, out, fh, memo, held + len(sep))
            else:
                out.append(s := sep + _leaf(v))
                held += len(s)
            sep = "," + inner
        out.append(nl + "]")
        return held + len(nl) + 1
    if t is _Spool:  # the items in its file, after the text before them
        import shutil  # imported here, as `tempfile` is: only an emitting scan spools
        x.flush()
        fh.write("".join(out))
        x.file.seek(0)
        shutil.copyfileobj(x.file, fh)
        out[:] = ["[]" if x.sep[0] == "[" else nl + "]"]
        return len(out[0])
    out.append(s := _leaf(x))
    return held + len(s)


def _leaf(v) -> str:
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:
        return int.__repr__(v)
    if t is float:
        if isfinite(v):
            return float.__repr__(v)
        raise TypeError(f"float {v!r} is not JSON")
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _save(path: str, write) -> None:
    """Make path the text file that write(fh) writes.  A regular file is
    written as a sibling temporary file, with the mode a plain
    `open(path, "w")` leaves, and renamed over path at the end, so a command
    that fails midway leaves no partial file and an older one untouched.
    Anything else (/dev/null, a FIFO) is opened and written as it goes."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    target = os.path.realpath(path)  # through a symlink, as open(path, "w") writes
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named for the artifact, as open(path) would
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
            write(fh)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


_AT_FLAGS = ("--group", "--subgroup", "--subset", "--id")  # naming a file as @file
_WRITTEN = ("--emit", "--csv", "--out")  # in the order a command writes them


def _check_distinct_files(args) -> None:
    """Refuse, before any work, a regular file that a command writes and that
    another of its paths names too, as resolved by `os.path.realpath`: a
    SpecError names the later flag.  A special file such as /dev/null may be
    named twice, as `_save` writes it in place."""
    named: dict = {}  # resolved path -> the first flag naming it
    for flag in ("--config", "--instance", "--expect", *_AT_FLAGS, *_WRITTEN):
        path = getattr(args, flag[2:], None)
        if flag in _AT_FLAGS:
            path = path[1:] if path and path.startswith("@") else None
        if not path:
            continue
        real = os.path.realpath(path)
        if real in named and flag in _WRITTEN and (os.path.isfile(real) or not os.path.exists(real)):
            raise SpecError(flag, f"{path!r} names the same file as {named[real]}")
        named.setdefault(real, flag)


def _emit(doc: dict, out: str | None) -> None:
    """Write doc as indented JSON and a newline to the file `out`, or stream
    it to stdout."""
    if out:
        _save(out, lambda fh: _dump(doc, fh, "\n"))
    else:
        _dump(doc, sys.stdout, "\n")


def _integer_arg(text: str) -> int:
    """An integer as written: an optional "-" and ASCII digits, nothing else."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON artifact here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubling",
        description="Exact doubling constants, quotient projections, and structure sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run property suites over one group")
    v.add_argument("--group", required=True, help='selector like "cyclic:12" or @spec.json')
    v.add_argument("--suite", default="all", help='comma list or "all"')
    v.add_argument("--subgroup-weight", default="counting", choices=["counting", "normalized"])
    v.add_argument("--max-subset-size", type=_integer_arg, default=None)
    v.add_argument("--symmetric-only", action="store_true")
    v.add_argument("--trials", type=_integer_arg, help="random trials when too big to exhaust (default 200)")
    v.add_argument("--seed", type=_integer_arg, help="seed of the random trials (default 0)")
    v.add_argument("--alphas", default="3/2,2,3")
    v.add_argument("-j", "--parallelism", choices=["1"], help=_ONE_PROCESS)
    _add_common(v)

    c = sub.add_parser("construct", help="build a sharpness witness instance")
    c.add_argument("--N", type=_integer_arg, required=True)
    c.add_argument("--h", type=_integer_arg, required=True)
    c.add_argument("--m", type=_integer_arg, required=True)
    c.add_argument("--emit", help="also write a loadable instance artifact here")
    c.add_argument("--materialize-cap", type=_integer_arg,
                   help=f"most elements --emit lists (default {EMIT_CAP})")
    _add_common(c)

    e = sub.add_parser("extract", help="certified structure-set extraction")
    e.add_argument("--alpha", default="2", help='comma list of rationals > 1, e.g. "3/2,2"')
    e.add_argument("--instance", help="instance artifact from construct --emit")
    e.add_argument("--group", help="group selector or @spec.json (with --subgroup/--subset)")
    e.add_argument("--subgroup", help='inline JSON or @file: {"elements":[...]} or {"keep":[...]}')
    e.add_argument("--subset", help='inline JSON or @file: {"elements":[...]} or construction ref')
    e.add_argument("--subgroup-weight", choices=["counting", "normalized"],
                   help="w_H of a --subgroup given by its elements (default counting)")
    e.add_argument("--trace", action="store_true", help="include a human-readable threshold trace")
    _add_common(e)

    s = sub.add_parser("scan", help="run a configured scan over many instances")
    s.add_argument("--config", required=True, help="scan config JSON file")
    s.add_argument("--csv", help="also write a lossy CSV table here")
    s.add_argument("-j", "--parallelism", choices=["1"], help=_ONE_PROCESS)
    _add_common(s)

    r = sub.add_parser("replay", help="recompute one instance report from its id")
    r.add_argument("--id", required=True, help="canonical instance id string, or @file")
    r.add_argument("--expect", help="stored instance report JSON to compare against")
    _add_common(r)
    return parser


def _group_arg(text: str) -> tuple[dict, WeightedGroup]:
    """A group selector like "cyclic:12", or @file holding a spec, with the
    group built from it, which the command owns."""
    return _selected(_read_json(text[1:], "--group") if text.startswith("@") else text, "/group")


def _flagged(flags: dict, read, *args, **kwargs):
    """read(*args, **kwargs); a SpecError at a path in `flags`, or inside one,
    is re-raised naming the flag that the value came from."""
    try:
        return read(*args, **kwargs)
    except SpecError as exc:
        flag = next((f for p, f in flags.items() if exc.path == p or exc.path.startswith(p + "/")), None)
        if flag is None:
            raise
        raise SpecError(flag, exc.reason) from None


def _alphas_arg(text: str, flag: str) -> tuple[Fraction, ...]:
    """A comma list of rationals > 1; errors name the flag."""
    return _flagged({"/alphas": flag}, parse_alphas, text.split(","))


def _cmd_verify(args) -> int:
    gspec, group = _group_arg(args.group)
    suites = ALL_SUITES if args.suite == "all" else tuple(args.suite.split(","))
    if group.order is None:
        raise SpecError("/group", "verify needs a finite group")
    if args.max_subset_size is not None or group.order <= _EXHAUSTIVE_DEFAULT_LIMIT:
        if args.trials is not None or args.seed is not None:
            flag = "--trials" if args.trials is not None else "--seed"
            raise SpecError(flag, "applies to random trials only, and this group is scanned exhaustively")
        subset_mode: dict = {"kind": "exhaustive"}
        if args.max_subset_size is not None:
            subset_mode["max_size"] = args.max_subset_size
        if args.symmetric_only:
            subset_mode["symmetric_only"] = True
    elif args.symmetric_only:
        raise SpecError("--symmetric-only", f"needs |G| <= {_EXHAUSTIVE_DEFAULT_LIMIT} or --max-subset-size")
    else:
        subset_mode = {"kind": "random", "count": 200 if args.trials is None else args.trials,
                       "seed": args.seed or 0}
    flags = {"/subset_mode/max_size": "--max-subset-size", "/subset_mode/count": "--trials", "/suites": "--suite"}
    config = _flagged(
        flags, ScanConfig, [gspec], subset_mode, suites, subgroup_weight=args.subgroup_weight,
        alphas=_alphas_arg(args.alphas, "--alphas"),
    )
    report = _flagged({"/groups/0": "/group"}, scan, config)
    _emit(report, args.out)
    return _violation_status(report)


def _violation_status(report: dict) -> int:
    """2 if the scan found violations, else 0; for 2, one stderr line per
    violated suite with its violation count and its first replayable id."""
    seen: dict = {}  # suite -> [count, first id]
    for v in report["aggregate"]["violations"]:
        seen.setdefault(v["suite"], [0, v["id"]])[0] += 1
    for suite, (count, instance_id) in seen.items():
        print(f"violated: {suite}: {count} violation(s); first id: {instance_id}", file=sys.stderr)
    return 2 if seen else 0


def _cmd_construct(args) -> int:
    if not args.emit:
        _unused(args, ("--materialize-cap",), "without --emit")
    cap = EMIT_CAP if args.materialize_cap is None else args.materialize_cap
    if cap < 0:
        raise SpecError("--materialize-cap", f"expected an integer >= 0, got {cap}")
    flags = {"/N": "--N", "/h": "--h", "/m": "--m"}
    inst = _flagged(flags, build_sharpness_instance, args.N, args.h, args.m)
    # the element list is written only to --emit: a cap of -1 builds none
    doc = inst.to_json(materialize_cap=cap if args.emit else -1)
    keys = ("params", "targets", "measures", "doubling", "quotient_doubling",
            "quotient_doubling_dec")
    report = {"kind": "sharpness-report", **{k: doc[k] for k in keys}}
    if args.emit:
        _emit(doc, args.emit)
        report["emitted"] = args.emit
    _emit(report, args.out)
    return 0


def _unused(args, flags: tuple, reason: str) -> None:
    """Reject the first of `flags` that was given, as the command would ignore it."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise SpecError(flag, f"not used {reason}")


def _load_extract_inputs(args):
    if args.instance:
        _unused(args, ("--group", "--subgroup", "--subset", "--subgroup-weight"), "with --instance")
        return load_instance(_read_json(args.instance, "--instance"), "/instance")
    subset_doc = _maybe_inline_json(args.subset, "--subset") if args.subset else None
    if isinstance(subset_doc, dict) and "construction" in subset_doc:
        _unused(args, ("--group", "--subgroup", "--subgroup-weight"), "with a construction reference")
        inst = build_from_reference(subset_doc, "/subset")
        _pair_cap(inst.element_count(), "--subset")  # before a single element is built
        return (group := inst.group()), inst.subset(group), inst.quotient_structure(group)
    if not args.group or not args.subgroup or not args.subset:
        raise SpecError("", "extract needs --instance, a construction reference in --subset, "
                            "or all of --group/--subgroup/--subset")
    group = _group_arg(args.group)[1]
    sub_doc = _maybe_inline_json(args.subgroup, "--subgroup")
    if isinstance(sub_doc, dict) and "elements" in sub_doc and "weight" not in sub_doc:
        sub_doc = {"elements": sub_doc["elements"], "weight": args.subgroup_weight or "counting"}
    else:
        _unused(args, ("--subgroup-weight",), "unless --subgroup lists elements without a weight")
    q = quotient_from_description(group, sub_doc, "/subgroup")
    a = decode_subset(group, subset_doc, "/subset")
    return group, a, q


def _pair_cap(n: int, flag: str) -> None:
    if n * n > MAX_PAIRS:  # A A: no product extract forms pairs more
        raise CapError(f"{flag}: extract forms a product of {n * n} pairs; the cap is 2^{MAX_PAIRS.bit_length() - 1}")


def _cmd_extract(args) -> int:
    group, a, q = _load_extract_inputs(args)
    _pair_cap(len(a.elements), "--instance" if args.instance else "--subset")
    alphas = _alphas_arg(args.alpha, "--alpha")
    ctx = InstanceContext(a, q)
    out: dict = {"kind": "extraction-report", "group": group.name, "certificates": {}}
    status = 0
    for alpha in alphas:
        try:
            entry = with_b(ctx, certify(ctx, alpha)).to_json(include_elements=True)
            entry["pass"] = True
            if args.trace:
                entry["trace"] = threshold_trace(ctx, alpha)
        except ConsistencyError as exc:
            entry = {"pass": False, "error": str(exc), "payload": exc.payload}
            status = 2
        out["certificates"][fmt(alpha)] = entry
    _emit(out, args.out)
    return status


def _cmd_scan(args) -> int:
    config = ScanConfig.from_json(_read_json(args.config, "--config"))
    if args.csv:
        config.emit_instances = True
    if not config.emit_instances:
        report = scan(config)
        print(f"scan: {report['aggregate']['instances']} instances", file=sys.stderr)
        _emit(report, args.out)
        return _violation_status(report)
    import shutil
    import tempfile  # both imported here: only an emitting scan spools
    with tempfile.TemporaryFile("w+") as file, tempfile.TemporaryFile("w+") as rows:  # ASCII text
        report = scan(config, spool := _Spool(file, rows if args.csv else None))
        print(f"scan: {report['aggregate']['instances']} instances", file=sys.stderr)
        if args.csv:
            _save(args.csv, lambda fh: (fh.write(report_csv({"instances": ()})), rows.seek(0),
                                        shutil.copyfileobj(rows, fh)))
        report["instances"] = spool
        _emit(report, args.out)
    return _violation_status(report)


def _cmd_replay(args) -> int:
    instance_id = _arg_file(args.id[1:], "--id").strip() if args.id.startswith("@") else args.id
    expected = _read_json(args.expect, "--expect") if args.expect else None
    try:
        report = replay(instance_id, expected)
    except ConsistencyError as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.out)
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "extract": _cmd_extract,
    "scan": _cmd_scan,
    "replay": _cmd_replay,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # theorem violations, so remap usage problems to 1
        return 0 if exc.code in (0, None) else 1
    try:
        _check_distinct_files(args)
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:  # SpecError, CapError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
