"""Command-line interface: thresholds, the LP table, curve data, and the
verification suites.

This module parses and prints.  It keeps the option tables, the parser,
the help text, the printers and the map from the library's errors to
exit codes; the suites that ``verify`` runs, their limits and their
cases live in ``suites``, which only ``verify`` imports.

It runs on the standard library alone.  Each command declares its options
once, with ``_command``: name, kind, default, whether required, help,
choices and whether repeatable.  ``_read`` and ``_convert`` read argv from
that table, ``_help`` prints the help text from it at a fixed width of 78
columns, laid out by ``textwrap``, which only help pages import, and
``main`` prints an error in click's layout: for a usage error the usage
line, the help hint, a blank line and ``Error: ...``, exit 2.  A command's
help text is its docstring, one line and one sentence, which the commands
table shortens to fit.  Each command imports the modules it runs in its
body, so numpy loads only for witness-max.  The library
returns exact values; this module alone turns them into text, and
``_exit_codes`` alone maps the library's errors and failed writes to exit
codes.
"""

import functools
import os
import sys
from contextlib import contextmanager, nullcontext

SCHEMA_VERSION = 1
_FORMATS = ("human", "json", "csv")

#: The names of the verify suites: ``suites.SUITES``'s keys, sorted.  The
#: option table needs them before ``suites`` is imported, which only
#: ``verify`` does.
SUITE_NAMES = ("appendix", "charfn", "lemma1", "phase-oracle", "wident", "witness-max")

#: Largest n whose closed-form rationals ``threshold`` and ``figure`` print:
#: near n = 14,273 their digits pass Python's int-to-string limit.
_CLOSED_FORM_MAX_N = 10_000

#: The help text's width in columns, whatever the terminal's.
_WIDTH = 78


class _Fail(Exception):
    """An ``Error:`` line on stderr and exit ``code``; a usage error also
    shows the command's usage line and help hint above it."""

    def __init__(self, message, code=2, usage=True):
        super().__init__(message)
        self.code, self.usage = code, usage


@contextmanager
def _exit_codes(param_hint=None):
    """Map the library's errors inside to exit codes: a ValueError (bad
    input) is a usage error that exits 2, naming ``param_hint`` when given;
    an ArithmeticError (a rejected certificate or an internal fault) and an
    OSError (a failed write) are one ``Error:`` line that exits 1, except a
    write into a pipe whose reader has gone, which exits 1 silently."""
    try:
        yield
    except ValueError as exc:
        raise _Fail(f"Invalid value for {param_hint}: {exc}" if param_hint else str(exc))
    except ArithmeticError as exc:
        raise _Fail(str(exc), code=1, usage=False)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot fail again, and exit 1 without a message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:
        raise _Fail(f"cannot write output: {exc.strerror or exc}", code=1, usage=False)


def _echo(text, file=None):
    """``text`` and a newline on ``file`` (stdout as it is at the call),
    flushed, so that a failed write fails here."""
    file = file or sys.stdout
    file.write(text + "\n")
    file.flush()


def _emit(fmt, human, payload, header, rows, file=None):
    """Print one result as human lines, a JSON object or CSV rows."""
    if fmt == "human":
        lines = human
    elif fmt == "json":
        import json

        lines = [json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True)]
    else:
        lines = [header, *(",".join(map(str, row)) for row in rows)]
    _echo("\n".join(lines), file)


@functools.cache
def _decimal_context():
    """The context of the decimal column: 12 significant digits."""
    from decimal import Context

    return Context(prec=12)


def _decimal(q):
    """A rational to 12 significant digits."""
    return str(_decimal_context().divide(q.numerator, q.denominator))


def _lp_payload(sol):
    """The JSON fields of one LP solution: exact tau, p_s and support weights."""
    from .partitions import format_partition

    return {"n": sol.n, "k": sol.k, "tau": str(sol.tau), "p_s": str(sol.p_s),
            "weights": {format_partition(p): str(w) for p, w in sol.support}}


class _Option:
    """One row of a command's option table.  ``kind`` is the metavar
    ``INTEGER``, ``TEXT`` or ``FILE`` (a writable file, ``-`` for stdout),
    or ``""`` for a flag; ``choices`` replace it."""

    def __init__(self, name, kind="INTEGER", default=None, help="", required=False,
                 choices=(), multiple=False, dest=None):
        self.flag, self.dest = f"--{name}", dest or name
        self.kind, self.default, self.help = kind, default, help
        self.required, self.choices, self.multiple = required, choices, multiple

    @property
    def metavar(self) -> str:
        return f"[{'|'.join(self.choices)}]" if self.choices else self.kind

    def convert(self, value):
        """The option's value from its text, else a usage error."""
        if self.kind == "INTEGER":
            try:
                return int(value)
            except ValueError:
                self.fail(f"{value!r} is not a valid integer.")
        if self.choices and value not in self.choices:
            self.fail(f"{value!r} is not one of {', '.join(map(repr, self.choices))}.")
        if self.kind == "FILE" and os.path.exists(value):
            if os.path.isdir(value):
                self.fail(f"File {value!r} is a directory.")
            for mode, word in ((os.R_OK, "readable"), (os.W_OK, "writable")):
                if not os.access(value, mode):
                    self.fail(f"File {value!r} is not {word}.")
        return value

    def fail(self, message):
        raise _Fail(f"Invalid value for {self.flag!r}: {message}")


_HELP = _Option("help", "", help="Show this message and exit.")
_FORMAT = _Option("format", "TEXT", "human", "Output format (default: human).",
                  choices=_FORMATS, dest="fmt")
_GROUP_HELP = "Exact separability thresholds of N-qubit GHZ states in white noise."

#: command name -> (function, option table)
_COMMANDS = {}


def _command(*options):
    """Register a command under its function's name, with its options."""
    def register(fn):
        _COMMANDS[fn.__name__] = (fn, (*options, _HELP))
        return fn
    return register


def _read(argv, options, interspersed=True):
    """``argv`` split as click's parser splits it: ({dest: text, or a list
    for a repeatable option}, in the order first given; the other
    arguments).  Options take ``--name value``, ``--name=value`` or, for a
    flag, ``--name``; ``--`` ends them, and so does the first other
    argument unless ``interspersed``."""
    by_flag = {opt.flag: opt for opt in options}
    given, rest, argv = {}, [], list(argv)
    while argv:
        arg = argv.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                argv.insert(0, arg)
                break
            rest.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        opt = by_flag.get(flag)
        if opt is None and arg[:2] != "--":
            raise _Fail(f"No such option {arg[:2]!r}.")
        if opt is None:
            from difflib import get_close_matches

            close = sorted(get_close_matches(flag, by_flag))
            quoted = ", ".join(map(repr, close))
            hint = (f" Did you mean {quoted}?" if len(close) == 1
                    else f" (Did you mean one of: {quoted}?)" if close else "")
            raise _Fail(f"No such option {flag!r}.{hint}")
        if not opt.kind and eq:
            raise _Fail(f"Option {flag!r} does not take a value.", usage=False)
        if opt.kind and not eq:
            if not argv:
                raise _Fail(f"Option {flag!r} requires an argument.", usage=False)
            value = argv.pop(0)
        value = value if opt.kind else True
        if opt.multiple:
            given.setdefault(opt.dest, []).append(value)
        else:
            given[opt.dest] = value
    return given, rest + argv


def _convert(options, given):
    """The keyword arguments of a command from its read options, checked as
    click checks them: the given options in the order given, then the
    others in the table's order."""
    kwargs = {}
    for opt in sorted(options, key=lambda opt: list(given).index(opt.dest)
                      if opt.dest in given else len(given)):
        if opt.dest == "help":
            continue
        if opt.dest not in given and opt.required:
            choose = "".join(f"\n\t{c}," for c in opt.choices)[:-1]
            raise _Fail(f"Missing option {opt.flag!r}." + (f" Choose from:{choose}" if choose else ""))
        value = given.get(opt.dest, opt.default)
        if not opt.kind:
            value = bool(value)
        elif opt.multiple:
            value = tuple(map(opt.convert, value))
        elif value is not None:
            value = opt.convert(value)
        kwargs[opt.dest] = value
    return kwargs


def _rows(pairs):
    """Two-column help rows: the first column at most 30 wide, then the
    text, wrapped; a longer first entry puts the text on the next line."""
    import textwrap

    first = min(max(len(a) for a, _ in pairs), 30) + 2
    lines = []
    for a, b in pairs:
        text = textwrap.wrap(b, _WIDTH - first - 2, break_long_words=False, break_on_hyphens=False)
        pad = "\n" + " " * (first + 2) if len(a) > first - 2 else " " * (first - len(a))
        lines.append(f"  {a}{pad + text[0] if b else ''}")
        lines += [" " * (first + 2) + line for line in text[1:]]
    return lines


def _help(usage, text, options, commands=None):
    """A help page: usage, the text, then the options and commands tables."""
    import textwrap

    page = textwrap.wrap(text, _WIDTH - 2, break_long_words=False, break_on_hyphens=False)
    lines = [f"Usage: {usage}", "", *("  " + line for line in page), "",
             "Options:", *_rows([(f"{opt.flag} {opt.metavar}".rstrip(),
                                  f"{opt.help}  [required]".lstrip() if opt.required else opt.help)
                                 for opt in options])]
    if commands:
        width = _WIDTH - 6 - max(map(len, commands))
        rows = [(name, textwrap.shorten(fn.__doc__, width, placeholder="..."))
                for name, (fn, _) in sorted(commands.items())]
        lines += ["", "Commands:", *_rows(rows)]
    return "\n".join(lines)


def main(args=None, prog_name=None, standalone_mode=True):
    """Run one command line, ``args`` or else ``sys.argv[1:]``, under
    ``prog_name`` or else the basename of ``sys.argv[0]``, which names the
    ``ghzsep`` script; the ``-m`` entry points pass their own names.  Bad
    input exits 2 and a failed command 1, always through SystemExit, so
    ``standalone_mode``, which click's entry point took, changes nothing."""
    argv = sys.argv[1:] if args is None else list(args)
    prog = command = prog_name or os.path.basename(sys.argv[0])
    usage = f"{prog} [OPTIONS] COMMAND [ARGS]..."
    try:
        if not argv:
            _echo(_help(usage, _GROUP_HELP, [_HELP], _COMMANDS), sys.stderr)
            sys.exit(2)
        with _exit_codes():
            given, rest = _read(argv, [_HELP], interspersed=False)
            name, *rest = rest or [None]
            if not given and name not in _COMMANDS and name and name[:1] == "-":
                given = _read([name], [_HELP])[0]  # after --, as click reads it
            if given:
                return _echo(_help(usage, _GROUP_HELP, [_HELP], _COMMANDS))
            if name not in _COMMANDS:
                raise _Fail("Missing command." if name is None else f"No such command {name!r}.")
            fn, options = _COMMANDS[name]
            command, usage = f"{prog} {name}", f"{prog} {name} [OPTIONS]"
            given, rest = _read(rest, options)
            if "help" in given:
                return _echo(_help(usage, fn.__doc__, options))
            kwargs = _convert(options, given)
            if rest:
                s = "s" if len(rest) > 1 else ""
                raise _Fail(f"Got unexpected extra argument{s} ({' '.join(rest)})")
            fn(**kwargs)
    except _Fail as exc:
        hint = f"Usage: {usage}\nTry '{command} --help' for help.\n\n" if exc.usage else ""
        sys.stderr.write(f"{hint}Error: {exc}\n")
        sys.exit(exc.code)
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        sys.exit(1)


#: Callers of click's group ran ``main.main(args=..., prog_name=...,
#: standalone_mode=...)``; ``bench/worker.py`` still does.
main.main = main


@_command(_Option("n", help="Number of qubits.", required=True),
          _Option("j", help="n-j separability index."),
          _Option("k", help="Number of parties."), _FORMAT)
def threshold(n, j, k, fmt):
    """Print the separability bound(s) for (n, j) or (n, k)."""
    from . import thresholds

    if (j is None) == (k is None):
        raise _Fail("provide exactly one of --j or --k")
    if n > _CLOSED_FORM_MAX_N:
        raise _Fail(f"need n <= {_CLOSED_FORM_MAX_N}, got n={n}")
    if j is not None:
        k = n - j
    bound, rule = thresholds.threshold(n, k)
    # schema 1 keeps its sufficient and necessary fields: both are the bound
    text = str(bound)
    _emit(fmt, [f"{text} (iff)", f"rule: {rule}"],
          {"n": n, "k": k, "kind": "iff", "rule": rule, "sufficient": text,
           "sufficient_decimal": _decimal(bound), "necessary": text},
          "n,k,kind,sufficient,necessary", [(n, k, "iff", text, text)])


@_command(_Option("nmax", default=12, help="Largest qubit count."),
          _Option("check", "", help="Compare against the golden values."), _FORMAT)
def table1(nmax, check, fmt):
    """K-separability thresholds from the exact linear program (n >= 6)."""
    from . import lpsolve
    from .partitions import format_partition

    if nmax < 6:
        raise _Fail(f"need --nmax >= 6, got {nmax}")
    with _exit_codes("'--nmax'"):
        rows = lpsolve.table1(range(6, nmax + 1))
    human = ["n  k  partitions (tau*weight)            tau        p_s"]
    for sol in rows:
        supp = ", ".join(f"{format_partition(p)}:{w * sol.tau}" for p, w in sol.support)
        human.append(f"{sol.n:<3}{sol.k:<3}{supp:<36}{str(sol.tau):<11}{sol.p_s}")
    _emit(fmt, human, {"rows": [_lp_payload(sol) for sol in rows]}, "n,k,tau,p_s,support",
          [(sol.n, sol.k, sol.tau, sol.p_s, " ".join(format_partition(p) for p, _ in sol.support))
           for sol in rows])
    if check:
        golden = [sol for sol in rows if (sol.n, sol.k) in lpsolve.REFERENCE_TAU]
        # every row is certified, which ties p_s to tau
        bad = [(sol.n, sol.k) for sol in golden if sol.tau != lpsolve.REFERENCE_TAU[sol.n, sol.k]]
        if bad:
            _echo(f"golden mismatch at rows: {bad}", sys.stderr)
            sys.exit(1)
        _echo(f"golden check passed for {len(golden)} rows", sys.stderr)


@_command(_Option("nmin", default=3), _Option("nmax", default=20),
          _Option("j", default=(1, 2, 3, 4, 5), multiple=True, dest="j_list"),
          _Option("out", "FILE", "-", "Output CSV path (default: stdout)."))
def figure(nmin, nmax, j_list, out):
    """Write threshold curve data as CSV."""
    from . import thresholds

    if nmax > _CLOSED_FORM_MAX_N:
        raise _Fail(f"need --nmax <= {_CLOSED_FORM_MAX_N}, got {nmax}")
    rows = thresholds.figure1_data(nmin, nmax, j_list)
    try:
        fh = nullcontext(sys.stdout) if out == "-" else open(out, "w")
    except OSError as exc:
        raise _Fail(f"Invalid value for '--out': cannot write {out}: {exc.strerror}")
    # closing the file flushes it, so a full disk can fail there too
    with fh as file:
        _emit("csv", None, None, "n,curve,p_exact,p_decimal",
              [(n, curve, p, _decimal(p)) for n, curve, p in rows], file=file)


@_command(_Option("n", required=True), _Option("k", required=True), _FORMAT)
def lp(n, k, fmt):
    """Solve the mixed-partition linear program for (n, k)."""
    from . import lpsolve
    from .partitions import format_partition

    with _exit_codes("'--n' / '--k'"):
        sol = lpsolve.certified_solve(n, k)
    _emit(fmt,
          [f"tau = {sol.tau}", f"p_s = {sol.p_s} ({_decimal(sol.p_s)})",
           *(f"  {format_partition(p)}: {w}" for p, w in sol.support),
           f"binding rows: {list(sol.binding)}", "certificate: valid"],
          {**_lp_payload(sol), "binding": list(sol.binding), "certified": True},
          "n,k,tau,p_s,certified", [(n, k, sol.tau, sol.p_s, True)])


@_command(_Option("suite", "TEXT", required=True, choices=(*SUITE_NAMES, "all")),
          _Option("seed", default=42),
          _Option("limits", "TEXT", "", "Comma-separated key=value limit overrides."))
def verify(suite, seed, limits):
    """Run a verification suite; stream JSON-line reports, exit 0 iff all pass."""
    import json
    from importlib.util import find_spec

    from . import suites

    if seed < 0:
        raise _Fail(f"need --seed >= 0, got {seed}")
    if suite == "all" and limits:
        raise _Fail(
            "--limits sets one suite's limits; --suite all runs each suite at its defaults")
    names = SUITE_NAMES if suite == "all" else [suite]
    limits = {name: suites.read_limits(name, limits) for name in names}
    if "witness-max" in names and find_spec("numpy") is None:
        raise _Fail("suite witness-max needs numpy, from the probes extra: "
                    "pip install 'ghzsep[probes]'", usage=False)
    all_ok = True
    for name in names:
        for record in suites.SUITES[name][0](seed, limits[name]):
            all_ok = all_ok and record.passed
            _echo(json.dumps({"check": record.check, "params": record.params,
                              "pass": record.passed, "detail": record.detail}, sort_keys=True))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main(prog_name="python -m ghzsep.cli")
