"""The package's public names, and the names the benchmark's tracer rebinds."""

import importlib
import importlib.util
from pathlib import Path

import alquot
import alquot.cli
from alquot import localpoints, mumford_graph, ntheory, parity, quadforms, quaternion, shimura

LIBRARY_MODULES = (ntheory, quadforms, quaternion, shimura, localpoints, parity, mumford_graph)

# the names the package exported before __all__ was derived from the modules
PINNED_NAMES = """
AdmissibilityRejection AdmissiblePair DeficiencyLedger F4_POINT_CAP GenusData
GraphParseError HYPERELLIPTIC_PRODUCT_BOUND HyperellipticFlag INFINITY
ImpossibleCaseError LengthedQuotientGraph LiftCase LocalStatus ParityCertificate
Place QuaternionAlgebra QuotientError STANDING_ASSUMPTIONS
SieveReport StatusSource Verdict base_change certify check_admissible
class_number deficiency_ledger eichler_class_number enumerate_admissible
fixed_points_e genus_VB genus_quotient has_local_point hilbert_symbol
hilbert_symbol_oracle hyperelliptic_sieve interchange is_prime
is_squarefree kronecker legendre lift_case_analysis opposite parse_graph
pic1_at_other_prime pic1_at_own_prime pic1_real poonen_stoll_verdict
prime_factors quad_field_splits quotient_by_involution quotient_edge_map
ramified_places reduced_discriminant reduced_forms serialize_graph validate
valuation
""".split()


def test_package_all_is_the_modules_all():
    expected = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert alquot.__all__ == expected
    assert len(set(alquot.__all__)) == len(alquot.__all__)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(alquot, name) is getattr(module, name)
    assert len(PINNED_NAMES) == 57
    assert set(PINNED_NAMES) <= set(alquot.__all__)
    assert "INVOLUTION_NAMES" in alquot.__all__


def test_cli_stays_out_of_the_package_namespace():
    for name in alquot.cli.__all__:
        assert name not in alquot.__all__
        assert not hasattr(alquot, name)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_targets_exist():
    tracing = _load_tracing()
    for module_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name, cls_name, methods, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for method in methods:
            assert method in cls.__dict__, (cls_name, method)
