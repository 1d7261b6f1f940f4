"""Docs health checker: links, API coverage, metric catalog, code refs.

Eight checks, all cheap enough for every CI run:

1. every relative link in the doc files (``README.md``, ``DESIGN.md``,
   ``EXPERIMENTS.md`` and ``docs/**/*.md``) resolves to a file that
   exists (external ``http(s)``/``mailto`` links and pure
   ``#fragment`` anchors are skipped, fragments are stripped before
   resolving);
2. every public method and property of ``repro.engine.QueryEngine``
   is mentioned in ``docs/api.md`` — the API reference must not
   silently fall behind the engine surface;
3. every public *class* exported by ``repro.engine`` (its ``__all__``)
   is mentioned in ``docs/api.md`` — new serving-layer types must
   land in the reference with the code that adds them;
4. every ``pinls_*`` Prometheus series name that appears as a literal
   anywhere under ``src/`` is cataloged in ``docs/observability.md``
   — the metric catalog must be the complete scrape surface;
5. every backticked ``repro.…`` dotted name in the doc files (outside
   fenced code blocks) resolves: its longest importable prefix
   imports and ``getattr`` finds the rest — a deleted module, class or
   function must not live on in the docs;
6. every repo-relative path in an inline code span, every such
   ``*.py`` path on a fenced line, and every ``make <target>`` in a
   code span or at the start of a fenced line of the doc files exists
   in the checkout — a deleted script or make target must not live on
   in the docs either;
7. every ``prime-ls <word>`` in an inline code span or on a fenced
   line of the doc files names a CLI command (a key of
   ``repro.cli._ALLOWED_FLAGS``) or an experiment (a name in
   ``repro.cli._registry()``), and every ``--flag`` after it in the
   same span or line, up to the next ``prime-ls``, is one that command
   accepts — a retired command or flag must not live on in the docs;
8. every ``Class.attr`` in an inline code span of the doc files, whose
   class is public in ``repro``, ``repro.core`` or ``repro.engine``
   (its package's ``__all__``), resolves: as a class attribute, a
   dataclass field, or a ``self.attr =`` assignment in the class or a
   base — a deleted method or attribute must not live on in the docs
   under its bare class name either.

Exit status 0 when all pass, 1 with one line per problem otherwise.
Run as ``PYTHONPATH=src python tools/check_docs.py`` from the repo
root (CI's "Docs health" step).
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — target captured up to the first unescaped ")".
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Fenced code blocks: links inside them are examples, not navigation.
_FENCE = re.compile(r"^\s*(```|~~~)")


def doc_files() -> list[Path]:
    """``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and every
    markdown file under ``docs/``."""
    return [
        REPO / "README.md",
        REPO / "DESIGN.md",
        REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").rglob("*.md")),
    ]


def split_fences(path: Path) -> tuple[str, list[tuple[int, str]]]:
    """A file's prose, fenced lines blanked, and its fenced lines.

    The prose keeps every line in place, so an offset into it maps to
    a line number; fence markers belong to neither part.
    """
    prose, fenced, in_fence = [], [], False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            prose.append("")
        elif in_fence:
            fenced.append((lineno, line))
            prose.append("")
        else:
            prose.append(line)
    return "\n".join(prose), fenced


def iter_matches(path: Path, pattern: re.Pattern):
    """Yield ``(line_number, group 1)`` per match outside fenced code."""
    prose, _ = split_fences(path)
    for lineno, line in enumerate(prose.splitlines(), start=1):
        for match in pattern.finditer(line):
            yield lineno, match.group(1)


def check_links() -> list[str]:
    """Return one problem string per broken relative link."""
    problems = []
    for md in doc_files():
        for lineno, target in iter_matches(md, _LINK):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                continue
            bare = target.split("#", 1)[0]
            if not bare:
                continue
            resolved = (md.parent / bare).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO)
                problems.append(f"{rel}:{lineno}: broken link -> {target}")
    return problems


def public_engine_api() -> list[str]:
    """Public method/property names on ``repro.engine.QueryEngine``."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.engine import QueryEngine

    names = []
    for name, member in inspect.getmembers(QueryEngine):
        if name.startswith("_"):
            continue
        if callable(member) or isinstance(member, property):
            names.append(name)
    return sorted(names)


def check_api_coverage() -> list[str]:
    """Return one problem string per engine method missing from api.md."""
    api_md = (REPO / "docs" / "api.md").read_text()
    problems = []
    for name in public_engine_api():
        if name not in api_md:
            problems.append(
                f"docs/api.md: public QueryEngine.{name} is undocumented"
            )
    return problems


def public_engine_classes() -> list[str]:
    """Class names exported via ``repro.engine.__all__``."""
    sys.path.insert(0, str(REPO / "src"))
    import repro.engine as engine

    return sorted(
        name for name in engine.__all__
        if inspect.isclass(getattr(engine, name))
    )


def check_class_coverage() -> list[str]:
    """Return one problem string per engine class missing from api.md."""
    api_md = (REPO / "docs" / "api.md").read_text()
    problems = []
    for name in public_engine_classes():
        if name not in api_md:
            problems.append(
                f"docs/api.md: public repro.engine class {name} "
                f"is undocumented"
            )
    return problems


# A Prometheus series literal: the repo-wide pinls_ prefix followed by
# the metric name proper.  Matching quoted literals only keeps derived
# strings (f-strings building label lines, render output) out of scope.
_SERIES = re.compile(r"""["'](pinls_[a-z][a-z0-9_]*)["']""")


def source_metric_series() -> list[str]:
    """Every ``pinls_*`` series name appearing as a literal in src/."""
    names: set[str] = set()
    for py in sorted((REPO / "src").rglob("*.py")):
        for match in _SERIES.finditer(py.read_text()):
            names.add(match.group(1))
    return sorted(names)


def check_metric_catalog() -> list[str]:
    """Return one problem string per series missing from observability.md."""
    catalog = (REPO / "docs" / "observability.md").read_text()
    problems = []
    for name in source_metric_series():
        if name not in catalog:
            problems.append(
                f"docs/observability.md: series {name} is not cataloged"
            )
    return problems


# A code span opening with a dotted name in the package, e.g.
# `repro.core.pruning.classify_span` or `repro.engine.IngestReport(...)`.
_CODE_REF = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module or an attribute reachable from one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_code_refs() -> list[str]:
    """Return one problem string per backticked name that does not resolve."""
    sys.path.insert(0, str(REPO / "src"))
    problems = []
    for md in doc_files():
        for lineno, dotted in iter_matches(md, _CODE_REF):
            if not resolves(dotted):
                rel = md.relative_to(REPO)
                problems.append(
                    f"{rel}:{lineno}: code reference `{dotted}` "
                    f"does not resolve"
                )
    return problems


# An inline code span, which may wrap onto its paragraph's next lines.
_SPAN = re.compile(r"`([^`\n]+(?:\n[^`\n]+)*)`")
# `make <target>` inside a code span.
_MAKE = re.compile(r"\bmake\s+(\w[\w.-]*)")
# A fenced command line running make.
_FENCED_MAKE = re.compile(r"^\s*(?:\$\s*)?make\s+(\w[\w.-]*)")
# A Makefile rule: ``target:``, not a ``:=`` assignment.
_RULE = re.compile(r"^(\w[\w.-]*)\s*:(?!=)", re.MULTILINE)


def make_targets() -> set[str]:
    """The rule names the repo's ``Makefile`` defines."""
    return set(_RULE.findall((REPO / "Makefile").read_text()))


def repo_path(token: str) -> str | None:
    """``token`` as a repo-relative path, or ``None`` if it is not one.

    A repo path starts with a top-level entry of the checkout
    (``src/...``, ``tests/...``, ``BENCH_4.json``), which keeps
    package-relative names (``engine/session.py``), URL routes
    (``/v1/query``) and doc-relative names out.  A pytest node id
    (``tests/test_pool.py::TestX``) keeps its file part.
    """
    path = token.split("::", 1)[0]
    head = path.split("/", 1)[0]
    if not head or not (REPO / head).exists():
        return None
    return path


def path_exists(path: str) -> bool:
    """Whether ``path`` (or, for a glob, at least one match) exists."""
    if "*" in path:
        return any(REPO.glob(path))
    return (REPO / path).exists()


def check_repo_refs() -> list[str]:
    """Return one problem string per named path or make target that is gone."""
    targets = make_targets()
    problems = []
    for md in doc_files():
        rel = md.relative_to(REPO)
        prose, fenced = split_fences(md)
        refs = []
        for match in _SPAN.finditer(prose):
            lineno = prose.count("\n", 0, match.start()) + 1
            text = match.group(1)
            paths = [p for p in map(repo_path, text.split()) if p]
            refs.append((lineno, paths, _MAKE.findall(text)))
        for lineno, line in fenced:
            paths = [
                p for p in map(repo_path, line.split())
                if p and p.endswith(".py")
            ]
            refs.append((lineno, paths, _FENCED_MAKE.findall(line)))
        for lineno, paths, makes in sorted(refs):
            for path in paths:
                if not path_exists(path):
                    problems.append(
                        f"{rel}:{lineno}: path `{path}` does not exist"
                    )
            for target in makes:
                if target not in targets:
                    problems.append(
                        f"{rel}:{lineno}: make target `{target}` "
                        f"does not exist"
                    )
    return problems


# `prime-ls <word>`, and a --flag after it.
_COMMAND = re.compile(r"\bprime-ls\s+([a-z][\w-]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def cli_commands() -> dict[str, set[str]]:
    """Every ``prime-ls`` command and experiment -> the flags it accepts."""
    sys.path.insert(0, str(REPO / "src"))
    from repro import cli

    commands = {name: set(flags) for name, flags in cli._ALLOWED_FLAGS.items()}
    for name in cli._registry():
        commands[name] = set(cli._EXPERIMENT_FLAGS)
    return commands


def check_cli_refs() -> list[str]:
    """Return one problem string per unknown command or unaccepted flag."""
    commands = cli_commands()
    problems = []
    for md in doc_files():
        rel = md.relative_to(REPO)
        prose, fenced = split_fences(md)
        texts = [
            (prose.count("\n", 0, match.start()) + 1, match.group(1))
            for match in _SPAN.finditer(prose)
        ]
        for lineno, text in sorted(texts + fenced):
            mentions = list(_COMMAND.finditer(text))
            ends = [m.start() for m in mentions[1:]] + [len(text)]
            for mention, end in zip(mentions, ends):
                command = mention.group(1)
                if command not in commands:
                    problems.append(
                        f"{rel}:{lineno}: `prime-ls {command}` is not a "
                        f"command"
                    )
                    continue
                for flag in _FLAG.findall(text, mention.end(), end):
                    if flag not in commands[command]:
                        problems.append(
                            f"{rel}:{lineno}: `prime-ls {command}` does "
                            f"not accept {flag}"
                        )
    return problems


# `Class.attr` in a code span; a dot before the class is a dotted path,
# which check 5 resolves.
_CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


def public_classes() -> dict[str, type]:
    """Class name -> class, over ``repro``, ``repro.core`` and
    ``repro.engine``'s ``__all__``."""
    sys.path.insert(0, str(REPO / "src"))
    classes = {}
    for package in ("repro", "repro.core", "repro.engine"):
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                classes[name] = obj
    return classes


def has_attribute(cls: type, attr: str) -> bool:
    """A class attribute, a dataclass field, or ``self.attr =`` in the
    source of ``cls`` or a base."""
    if hasattr(cls, attr) or attr in getattr(cls, "__dataclass_fields__", {}):
        return True
    assignment = re.compile(rf"\bself\.{attr}\s*(?::[^=\n]+)?=(?!=)")
    for klass in cls.__mro__[:-1]:
        try:
            source = inspect.getsource(klass)
        except (OSError, TypeError):
            continue
        if assignment.search(source):
            return True
    return False


def check_class_attrs() -> list[str]:
    """Return one problem string per ``Class.attr`` the class lacks."""
    classes = public_classes()
    problems = []
    for md in doc_files():
        rel = md.relative_to(REPO)
        prose, _ = split_fences(md)
        for match in _SPAN.finditer(prose):
            lineno = prose.count("\n", 0, match.start()) + 1
            for name, attr in _CLASS_ATTR.findall(match.group(1)):
                cls = classes.get(name)
                if cls is not None and not has_attribute(cls, attr):
                    problems.append(
                        f"{rel}:{lineno}: `{name}.{attr}` is not an "
                        f"attribute of {cls.__module__}.{name}"
                    )
    return problems


def main() -> int:
    """Run all checks; print problems; return a process exit code."""
    problems = (
        check_links()
        + check_api_coverage()
        + check_class_coverage()
        + check_metric_catalog()
        + check_code_refs()
        + check_repo_refs()
        + check_cli_refs()
        + check_class_attrs()
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"docs health: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs health: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
