"""Combinatorial Hopf algebras of rooted trees and words, with the exact
universal singular frame and its Hall-polynomial representation."""

from .algebra import (LinComb, PairingError, ParseError, Scalar, Tensor,
                      as_fraction, functional_convolve, kronecker,
                      lincomb_tensor, pair_eval, splice_at)
from .checks import CheckRow, run_suite
from .lyndon_hall import (HallForest, HallTree, alpha_key, foliage_word,
                          hall_forest, hall_forests, hall_polynomial, hall_set,
                          hall_tree_less, hall_tree_of_lyndon, is_hall_tree,
                          is_lyndon, lyndon_factorize, lyndon_generate,
                          lyndon_poly_decompose, pbw_element, xi)
from .morphisms import (Composition, composition, diagram_check, e_basis,
                        kernel_generators, m_lambda, pi, qsym_antipode,
                        qsym_coproduct, qsym_product, rho, sym_e_decompose,
                        zhao_Z, zhao_Zstar, zhao_eps, zhao_k)
from .singular_frame import (FrameSeries, FrameTerm, UnivariatePoly, alphaU,
                             alphaU_word_sum, betaU, forest_exp, forest_log,
                             frame_coefficient, frame_series,
                             hall_representation, iterated_integral,
                             prop53_check, prop53_counterexample)
from .tree_hopf import (Character, CocycleLawError, CocycleTarget,
                        InfinitesimalCharacter, char_convolution, char_exp,
                        char_log, ck_antipode, ck_coproduct, ck_counit,
                        ck_gl_dual, ck_gl_pairing, ck_product, ck_target,
                        cocycle_lift, coproduct_forest, cut_coproduct_tree,
                        foissy_antipode, foissy_coproduct, foissy_product,
                        gl_antipode, gl_coproduct, gl_counit, gl_product,
                        gl_unit, pair_gl_ck, planar_diamond,
                        planar_diamond_antipode, planar_diamond_coproduct,
                        shuffle_target, universal_cocycle_map)
from .trees import (EMPTY_FOREST, EMPTY_PLANAR_FOREST, Forest, PlanarForest,
                    PlanarTree, RootedTree, admissible_cuts, bplus,
                    enumerate_forests, enumerate_trees, forest, forest_mul,
                    graft, labeled_ladder, ladder, leaf, linear_extensions,
                    parse_forest, parse_tree, strip_root, sym_order)
from .words import (ADDITIVE, EMPTY_WORD, ZERO, Word, concat, deconcat,
                    hoffman_psi, hoffman_tau, lie_bracket, parse_word,
                    quasi_shuffle, shuffle, word, word_antipode, words_of_weight)


def clear_caches() -> None:
    """Empty every memo the package keeps: each module-level lru_cache and
    each module-level dict named *_CACHE, found by walking the package's
    modules."""
    import importlib
    import pkgutil
    for info in pkgutil.iter_modules(__path__):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif name.endswith("_CACHE") and isinstance(obj, dict):
                obj.clear()


__all__ = [name for name in dir() if not name.startswith("_")]
