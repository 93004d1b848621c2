"""The metric catalogue, the boot scrape and docs/observability.md agree.

`repro.obs.catalogue` declares every process-wide family once and
registers it on import, so a freshly-booted process's very first
scrape shows the whole catalogue (zero-valued).  These tests parse the
catalogue tables out of the markdown and check them against the
catalogue module and against a scrape taken in a fresh interpreter:
the same family names in both directions, and the same kind and labels
on every documented row.
"""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.obs import catalogue
from repro.obs.registry import Counter, Histogram

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

#: Families documented under this source live on a per-server private
#: registry (see ServiceMetrics), not the process-wide one.
PRIVATE_SOURCE = "service.metrics"


def documented_families() -> dict[str, tuple[str, tuple[str, ...]]]:
    """``{family: (kind, labelnames)}`` for every process-wide table row."""
    rows: dict[str, tuple[str, tuple[str, ...]]] = {}
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `repro_"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        match = re.match(r"`(repro_[a-z0-9_]+)(?:\{([a-z_,]*)\})?`$", cells[0])
        if match is None:
            continue  # wildcard rows like `repro_cache_*`
        if len(cells) > 2 and PRIVATE_SOURCE in cells[2]:
            continue
        labels = tuple(match.group(2).split(",")) if match.group(2) else ()
        rows[match.group(1)] = (cells[1], labels)
    return rows


def catalogue_families() -> dict[str, object]:
    """``{family: handle}`` for every metric the catalogue module binds."""
    return {
        value.name: value
        for value in vars(catalogue).values()
        if isinstance(value, (Counter, Histogram))  # Gauge is a Counter
    }


@functools.lru_cache(maxsize=1)
def boot_families() -> dict[str, str]:
    """``{family: kind}`` from the ``# TYPE`` lines of a fresh process."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = "import repro.obs; print(repro.obs.get_registry().render(), end='')"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return {
        line.split()[2]: line.split()[3]
        for line in proc.stdout.splitlines()
        if line.startswith("# TYPE ")
    }


class TestCatalogueSync:
    def test_doc_parses_a_real_catalogue(self):
        documented = documented_families()
        assert len(documented) > 60
        assert "repro_kernel_calls_total" in documented
        assert "repro_cluster_federated_scrapes_total" in documented
        assert "repro_obs_spans_recorded_total" in documented

    def test_every_documented_family_preregistered(self):
        missing = set(documented_families()) - set(boot_families())
        assert not missing, f"documented but absent from the boot scrape: {sorted(missing)}"

    def test_new_subsystem_families_documented(self):
        """Every family the boot scrape exposes must appear in the docs."""
        undocumented = set(boot_families()) - set(documented_families())
        assert not undocumented, f"in the boot scrape but not documented: {sorted(undocumented)}"

    def test_boot_scrape_is_the_catalogue(self):
        families = catalogue_families()
        assert boot_families() == {name: metric.kind for name, metric in families.items()}

    def test_documented_kind_and_labels_match_catalogue(self):
        families = catalogue_families()
        wrong = {
            name: {"documented": row, "catalogue": (metric.kind, metric.labelnames)}
            for name, row in documented_families().items()
            if (metric := families.get(name)) is not None
            and row != (metric.kind, metric.labelnames)
        }
        assert not wrong, wrong

    def test_one_handle_per_family_named_after_it(self):
        handles = [
            (attribute, value)
            for attribute, value in vars(catalogue).items()
            if isinstance(value, (Counter, Histogram))
        ]
        assert len(handles) == len(catalogue_families())
        for attribute, metric in handles:
            expected = metric.name.removeprefix("repro_").removesuffix("_total").upper()
            assert attribute == expected, (attribute, metric.name)
