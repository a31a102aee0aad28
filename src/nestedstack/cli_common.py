"""What `cli` and the command handlers share: exit codes, usage errors,
files, words from CLI text, and the caps and horizon options.  Loading it
loads no other module of the package, so every command can load it."""

from __future__ import annotations

from typing import Tuple

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    """Bad input found after parsing: `main` prints the message as the one
    stderr line and exits with EXIT_USAGE."""


def _as_usage(errors, call, *args, prefix: str = "error"):
    """`call(*args)`, reporting the exceptions in `errors` as usage errors."""
    try:
        return call(*args)
    except errors as exc:
        raise _UsageError(f"{prefix}: {exc}") from None


def _read(path: str, parse):
    """`parse` applied to the text of a UTF-8 file.  A missing, unreadable
    or malformed file is a usage error reported as `path[:line]: message`,
    with the line of a parse error that has a `line_no` and a `message`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except (OSError, ValueError) as exc:
        line_no = getattr(exc, "line_no", None)
        if line_no is None:
            raise _UsageError(f"{path}: {exc}") from None
        where = f"{path}:{line_no}" if line_no else path
        raise _UsageError(f"{where}: {exc.message}") from None


def _oracle(spec: str, prefix: str = "error"):
    """The group oracle of a spec, whose errors are usage errors; a table
    file's are reported by `_read`."""
    from .groups import make_oracle, parse_finite_table

    return _as_usage(ValueError, make_oracle, spec, lambda path: _read(path, parse_finite_table), prefix=prefix)


def _write(path: str, text: str) -> None:
    """`text` written to a file; failing is a usage error, `path: message`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def parse_word(text: str) -> Tuple[str, ...]:
    """A word from CLI text: whitespace-separated tokens, or one letter per
    character when there is no whitespace."""
    if text.split() != [text]:
        return tuple(text.split())
    return tuple(text)


def _format_word(word: Tuple[str, ...]) -> str:
    if not word:
        return "ε"
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return " ".join(word)


def _read_word(args) -> Tuple[str, ...]:
    if args.word_file:
        return _read(args.word_file, lambda text: tuple(text.split()))
    return parse_word(args.word)


def _caps(args):
    """The `--max-*` caps; one left out (None) or not taken keeps its default."""
    from .machine import ResourceCaps

    given = {name: getattr(args, name, None) for name in ResourceCaps._fields}
    return ResourceCaps(**{name: v for name, v in given.items() if v is not None})


def _horizon(args):
    from .config_graph import BuildHorizon

    return BuildHorizon(args.horizon, args.max_vertices, args.max_depth)
