"""Combinatorial Hopf algebras of rooted trees and words, with the exact
universal singular frame and its Hall-polynomial representation."""

from . import trees
from .algebra import LinComb, ParseError, Scalar, Tensor, as_fraction, lincomb_tensor
from .checks import CheckRow, run_suite
from .lyndon_hall import (HallForest, HallTree, alpha_key, foliage_word,
                          hall_forest, hall_forests, hall_polynomial, hall_set,
                          hall_tree_of_lyndon, is_hall_tree, is_lyndon,
                          lyndon_factorize, lyndon_generate, lyndon_poly_decompose,
                          lyndon_words, pbw_element, xi)
from .morphisms import (composition, diagram_check, e_basis, kernel_generators,
                        m_lambda, pi, qsym_antipode, qsym_product, rho,
                        sym_e_decompose, zhao_Z, zhao_Zstar, zhao_eps, zhao_k)
from .singular_frame import (FrameSeries, UnivariatePoly, alphaU, betaU,
                             frame_coefficient, frame_series, hall_representation,
                             iterated_integral, prop53_check, prop53_counterexample)
from .tree_hopf import (CocycleLawError, CocycleTarget, char_log, ck_antipode,
                        ck_gl_dual, ck_product, cocycle_lift, coproduct_forest,
                        gl_antipode, gl_coproduct, gl_product, gl_unit, planar_diamond,
                        planar_diamond_antipode, planar_diamond_coproduct,
                        shuffle_target, universal_cocycle_map)
from .trees import (EMPTY_FOREST, EMPTY_PLANAR_FOREST, Forest, PlanarForest,
                    PlanarTree, RootedTree, bplus, enumerate_forests,
                    enumerate_trees, forest, forest_mul, graft, labeled_ladder,
                    ladder, leaf, linear_extensions, parse_forest, parse_tree,
                    strip_root, sym_order)
from .words import (ADDITIVE, EMPTY_WORD, ZERO, Word, concat, deconcat,
                    hoffman_psi, hoffman_tau, lie_bracket, parse_word,
                    quasi_shuffle, shuffle, word, word_antipode, words_of_weight)


def clear_caches() -> None:
    """Empty every process-wide memo, each a module-level lru_cache found by
    walking the package's modules, and the tree intern table.  A closure's
    cache lives with the callable that holds it and is not reached here."""
    import importlib
    import pkgutil
    for info in pkgutil.iter_modules(__path__):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    trees._INTERN_CACHE.clear()


__all__ = [name for name in dir() if not name.startswith("_")]
