"""The benchmark's workloads: the CLI commands each one runs, built from a seed.

A seed selects one of VARIANTS input variants (seed % VARIANTS). The variants
differ only in builder parameters (centers, exponents, the unit-ball seed),
never in grid size or command structure. Variant 0 runs ``ap --w power:0.50``
and ``bmo --b logspike:0.01``. Traced, all four variants make the same calls
and the same computed work counts, except ``orlicz.iterations`` on
``weights``, which is 1780 or 1781. The reference outputs stored in
``expected/`` cover every variant.

``size="tiny"`` runs the same commands on a 64-cell grid; the smoke test uses
it with a reference it records itself.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 4
WORKLOADS = ("weights", "kr", "spectral")

# Grid sizes per workload. kr runs at m=2048 and spectral at m=1024: at twice
# those sizes one pass of their commands (fresh processes, then in-process)
# takes 16-24 s on 2 cores, too long to repeat enough times in one run.
_SIZES = {
    "full": {"weights": 4096, "kr": 2048, "spectral": 1024},
    "tiny": {"weights": 64, "kr": 64, "spectral": 64},
}
_K_LIST = {"full": "64,256", "tiny": "4,16"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--out DIR`` is appended by the runner."""

    argv: tuple[str, ...]
    exact_zero: bool = False  # the report's result.max_abs must be exactly 0


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _u(j: int) -> str:
    return f"const:1+gaussian:{-0.3 + 0.2 * j:.2f},0.3"


def _v_closed(j: int) -> str:
    return f"const:1+gaussian:{0.3 - 0.2 * j:.2f},0.6"


def _b(j: int) -> str:
    return f"bump:{-0.15 + 0.1 * j:.2f},0.5"


def commands(workload: str, variant: int, size: str = "full") -> list[Command]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    if not 0 <= variant < VARIANTS:
        raise ValueError(f"variant must be in [0, {VARIANTS})")
    j = variant
    grid = ("--L", "8", "--m", str(_SIZES[size][workload]))
    cubes = ("--cubes", "dyadic+shifted")
    if workload == "weights":
        argvs = [
            ("weights", "gen", "--u", _u(j), "--k", "5"),
            ("bump", "--preset", "comm", "--u", _u(j), "--v", "M5:u", *cubes),
            ("bump", "--preset", "czo", "--u", _u(j), "--v", _v_closed(j), *cubes),
            ("ap", "--w", f"power:{0.5 + 0.05 * j:.2f}", *cubes),
            ("bmo", "--b", f"logspike:{0.01 * (j + 1):.2f}", *cubes),
        ]
        return [Command(a + grid) for a in argvs]
    if workload == "kr":
        f = f"indicator:{-0.5 + 0.25 * j:.2f},{0.5 + 0.25 * j:.2f}"
        eta = ("--eta-cells", "32")
        return [
            Command(("op", "apply", "--op", "Teta", "--f", f, *eta) + grid),
            Command(("op", "apply", "--op", "commutator", "--b", _b(j), "--f", f, *eta) + grid),
            Command(("op", "apply", "--op", "Tsharp", "--f", f) + grid),
            Command(("op", "apply", "--op", "commutator", "--b", "const:3", "--f", f, *eta)
                    + grid, exact_zero=True),
            Command(("probe", "kr", "--b", _b(j), "--u", _u(j), "--v", _v_closed(j),
                     "--count", "32", "--seed", str(7 + j), "--N-list", "2,4",
                     "--shift-list", "1,2,4", *eta) + grid),
        ]
    eta = ("--eta-cells", "16")
    k_list = ("--K-list", _K_LIST[size])
    return [
        Command(("probe", "svd", "--b", _b(j), "--u", _u(j), "--v", _v_closed(j),
                 *eta, *k_list) + grid),
        Command(("compare", "--b-cmo", _b(j), "--b-bmo", f"logspike:{0.01 * (j + 1):.2f}",
                 "--u", _u(j), "--v", _v_closed(j), *eta, *k_list) + grid),
    ]
