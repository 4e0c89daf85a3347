"""Exact-rational engine for semi-static hedging on finite filtered markets."""

from .bounds import (
    double_factorial,
    multinomial_lhs,
    verify_multinomial_inequality,
)
from .duality import (
    ArbitrageReport,
    DualityReport,
    RobustPriceResult,
    SuperhedgeResult,
    detect_arbitrage,
    robust_price,
    superhedge,
    verify_duality,
)
from .enlargement import (
    AzemaResult,
    CompensatorResult,
    EnlargedModel,
    InformedCompareReport,
    JeulinYorResult,
    SingleJump,
    azema,
    compensator,
    enlarge,
    filtrations_coincide,
    informed_compare,
    jeulin_yor,
)
from .hedging import (
    CompletenessReport,
    JumpBlock,
    NotReplicable,
    SemiStaticStrategy,
    UnhedgeableDecomposition,
    decompose_unhedgeable,
    hedging_span,
    is_semistatically_complete,
    replicate,
    strategy_payoff,
)
from .model import (
    FilteredModel,
    Measure,
    Partition,
    natural_filtration,
    validate_model,
)
from .polytope import (
    ConstraintSystem,
    VertexSet,
    build_constraints,
    enumerate_extreme_points,
    is_extreme,
    member,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .tree import (
    AtomicTree,
    NoTree,
    TreeNode,
    check_theorem_conditions,
    extract_tree,
    is_full,
    validate_atomic_tree,
)
