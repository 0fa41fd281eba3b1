"""qrandlab: a desk-scale statevector lab for pseudorandom-state generators,
abort-capable generators, oracle separation worlds, and the statistical
experiments that check their testable properties."""

from .constructions import (
    Con2Params,
    Con3Params,
    con1_eval,
    con1_handle,
    con1_qsamp,
    con2_eval,
    con2_handle,
    con2_qsamp,
    con3_handle,
    con3_stategen,
    phase_state,
    prfqs_from_prgqs,
)
from .experiments import (
    AdversaryHandle,
    advantage_ci,
    bruteforce_owsg_handle,
    bruteforce_prg_handle,
    exp_botprg,
    exp_owsg,
    exp_prg,
    moment_distance,
    moment_hs2,
)
from .extraction import (
    RoundParams,
    block_sums,
    extract,
    gaussian_block_check,
    good_set_member,
    round_bits,
)
from .oracles import (
    BotOracleParams,
    OracleWorld,
    bot_oracle_eval,
    bot_oracle_eval_many,
    bot_oracle_good_set,
    bot_prg_handle,
    measure_flipped,
    prfqs_from_world,
    sampler_oracle,
    verify_eval_oracle,
)
from .primitives import (
    BOT,
    BotValue,
    GeneratorHandle,
    as_bot,
    determinism_audit,
    is_bot,
    vote,
    vote_non_bot,
)
from .qcore import (
    DimensionMismatchError,
    InvalidDimensionError,
    MemoryBudgetError,
    StateVector,
    born_distribution,
    haar_sample,
    measure_computational,
)
from .rng import ParameterError, SeededRng, derive_bits, derive_int, parse_bits
from .tomography import estimate_diagonal, sampled_diagonal

__version__ = "0.1.0"
