#!/usr/bin/env python3
"""Documentation checks: markdown links and API.md code snippets.

Two passes, both hermetic (no network):

1. Link check over README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md:
   every relative link must resolve to a file in the repo, and every
   `#anchor` (same-file or cross-file) must match a heading in the target
   document, using GitHub's slug rules. External http(s)/mailto links are
   format-checked only.

2. Required-section check: headings listed in REQUIRED_SECTIONS must
   exist (as GitHub anchor slugs) in their documents — e.g. the serving
   cancellation/degraded-result contract in docs/API.md and the
   degradation-alerting guidance in docs/OBSERVABILITY.md.

3. Snippet compile check over fenced ```cpp blocks in docs/API.md: each
   block is hoisted into a translation unit (includes first, body wrapped
   in a Status-returning function over a small extern-variable preamble)
   and run through `g++ -fsyntax-only -std=c++20`. This keeps the examples
   honest: an API rename that is not reflected in the docs fails CI.
   Blocks that are deliberately not compilable (pseudo-code, shell-ish
   transcripts) use a non-cpp info string such as ```text.

Exit status 0 when everything passes, 1 otherwise; findings are printed
one per line as `file:line: message`.
"""

import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

LINKED_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
SNIPPET_DOC = "docs/API.md"

# Sections whose presence is contractual: the serving robustness
# semantics (cancellation/degraded results), the operator guidance for
# them, the RESACC02 on-disk byte layout, and the Graph span-ownership
# model live nowhere else, so a doc refactor that drops any of these
# headings must fail CI. Checked as GitHub anchor slugs.
REQUIRED_SECTIONS = {
    "docs/API.md": [
        "cancellation-deadlines--degraded-results",
        "graph-storage",
        "resacc02-byte-layout",
        "dynamic-graphs-mutations-and-invalidation",
        "batched-solving",
        "top-k-queries",
    ],
    "docs/OBSERVABILITY.md": [
        "alerting-on-degradation",
        "per-tenant-series",
    ],
    "docs/WORKLOADS.md": [
        "spec-format",
        "tenants-and-qos",
        "reading-bench_workloadjson",
        "updating-the-baseline",
    ],
    "docs/QUERY_MODES.md": [
        "full-vector-queries",
        "top-k-queries",
        "degraded-and-partial-results",
        "batched-queries",
        "hybrid-localdense-solving",
        "deadline-bound-queries",
        "epoch-pinned-queries-under-mutation",
    ],
    "DESIGN.md": [
        "storage-ownership-borrowed-spans",
        "dynamic-graphs-delta-overlay-epochs-compaction",
        "gathered-jobs",
        "top-k-bound-based-early-termination",
        "hybrid-localdense-solving",
    ],
}

# Declarations the API.md snippets may reference without declaring; the
# snippets stay focused on the call being documented. Local declarations
# in a snippet legally shadow these.
SNIPPET_PREAMBLE = """\
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "resacc/algo/fora.h"
#include "resacc/algo/fora_plus.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/algo/power.h"
#include "resacc/core/parallel_msrwr.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/seed_set_query.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/eval/metrics.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_io.h"
#include "resacc/nise/nise.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/stats_reporter.h"
#include "resacc/obs/trace.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/workload.h"
#include "resacc/util/rng.h"
#include "resacc/util/timer.h"

using namespace resacc;

extern Graph graph;
extern RwrConfig config;
extern NodeId num_nodes, u, v, source, s1, s2, s3, seed_a, seed_b;
extern std::vector<NodeId> sources;
extern std::vector<Score> estimate, exact, scores;
"""


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: pathlib.Path):
    slugs, counts = set(), {}
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = re.match(r"#{1,6}\s+(.*)", line)
        if match:
            slug = github_slug(match.group(1))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")


def check_links(doc_paths):
    errors = []
    slug_cache = {}

    def slugs_for(path):
        if path not in slug_cache:
            slug_cache[path] = heading_slugs(path)
        return slug_cache[path]

    for doc in doc_paths:
        in_fence = False
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                base, _, anchor = target.partition("#")
                dest = doc if not base else (doc.parent / base).resolve()
                if base and not dest.exists():
                    errors.append(f"{doc}:{lineno}: broken link '{target}'")
                    continue
                if anchor and dest.suffix == ".md":
                    if anchor not in slugs_for(dest):
                        errors.append(
                            f"{doc}:{lineno}: missing anchor '#{anchor}' "
                            f"in {dest.relative_to(REPO)}")
    return errors


def check_required_sections():
    errors = []
    for relpath, anchors in REQUIRED_SECTIONS.items():
        path = REPO / relpath
        if not path.exists():
            continue  # reported as a missing file by main()
        slugs = heading_slugs(path)
        for anchor in anchors:
            if anchor not in slugs:
                errors.append(
                    f"{path}: required section '#{anchor}' is missing")
    return errors


def extract_cpp_snippets(path: pathlib.Path):
    snippets, current, start = [], None, 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        if current is None:
            if stripped == "```cpp":
                current, start = [], lineno
        elif stripped == "```":
            snippets.append((start, "\n".join(current)))
            current = None
        else:
            current.append(line)
    return snippets


def check_snippets(path: pathlib.Path):
    snippets = extract_cpp_snippets(path)
    if not snippets:
        return [f"{path}: no ```cpp snippets found (drift check is moot)"]
    errors = []
    includes, bodies = [], []
    for index, (lineno, text) in enumerate(snippets):
        body_lines = []
        for line in text.splitlines():
            if line.lstrip().startswith("#include"):
                includes.append(line.lstrip())
            else:
                body_lines.append(line)
        body = "\n".join(body_lines)
        if "int main" in body:
            bodies.append(body)  # standalone example, keep at file scope
        else:
            bodies.append(
                f"Status DocSnippet{index}() {{  // {path.name}:{lineno}\n"
                f"{body}\n"
                f"return Status::Ok();\n}}")
    unit = (SNIPPET_PREAMBLE + "\n" + "\n".join(dict.fromkeys(includes)) +
            "\n\n" + "\n\n".join(bodies) + "\n")
    with tempfile.NamedTemporaryFile(
            suffix=".cc", mode="w", delete=False) as handle:
        handle.write(unit)
        unit_path = handle.name
    result = subprocess.run(
        ["g++", "-fsyntax-only", "-std=c++20", "-I", str(REPO / "src"),
         "-Wno-unused-variable", unit_path],
        capture_output=True, text=True)
    if result.returncode != 0:
        errors.append(f"{path}: snippet compile check failed "
                      f"({len(snippets)} snippets):")
        errors.append(result.stderr.strip())
        errors.append(f"generated unit kept at {unit_path}")
    else:
        pathlib.Path(unit_path).unlink()
        print(f"{path}: {len(snippets)} cpp snippets compile")
    return errors


def main() -> int:
    docs = [REPO / name for name in LINKED_DOCS]
    docs += sorted((REPO / "docs").glob("*.md"))
    missing = [d for d in docs if not d.exists()]
    errors = [f"{d}: file missing" for d in missing]
    docs = [d for d in docs if d.exists()]
    errors += check_links(docs)
    errors += check_required_sections()
    errors += check_snippets(REPO / SNIPPET_DOC)
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(f"checked {len(docs)} documents: links and snippets OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
