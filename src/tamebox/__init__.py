"""Exact combinatorics of finitely supported injection-monoid actions,
box products, and diagrams over finite sets and injections."""

from .errors import TameboxError
from .injections import (
    OperadElement,
    PartialInjection,
    Piece,
    QuasiAffineInjection,
    order_embed_avoiding,
)
from .iset import (
    ISetMorphism,
    OmegaColimit,
    TruncatedISet,
    canonicalize,
    constant_iset,
    day_convolution,
    day_projections,
    flat_replacement,
    is_flat,
    latching,
    mono_pushout_injective,
    n_iso_check,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from .mset import (
    CanonicalTameMSet,
    MElement,
    MSetMorphism,
    box,
    box_pair,
    box_split,
    coequalize,
    decompose_table,
    injection_mset,
    injection_split_iso,
    mset_iso_equal,
    orbit_product_bijection,
    semifree_mset,
    support,
)
from .opalg import (
    AlgebraAction,
    Certificate,
    CertificateStep,
    CommMonoidPresentation,
    algebra_to_monoid,
    box_to_operadic,
    certify_agreement,
    infinite_symmetric_product,
    monoid_to_algebra,
    operadic_to_box,
    pointwise_action,
    trivial_from_abelian,
    verify_certificate,
    wedge_iso,
)
from .sigma import SigmaSet, induce, iso_equal

__version__ = "0.1.0"
