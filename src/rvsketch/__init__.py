"""Secure sketches from locality-sensitive bit sampling.

A secret bitstring is encoded twice (inner then outer code, with a zero
prefix marking decodable states), masked by a fixed-weight random error
and hidden under a resilient vector sampled at public random positions.
Recovery enumerates candidate error vectors and accepts on the zero
prefix. Analytical companions cover the concentration, tolerance, rate
and complexity bounds the construction obeys.
"""

from .analysis import (BoundCheck, RateBounds, Thresholds, binary_entropy,
                       binom_lower_tail, efficiency_bound_check,
                       error_floor_check, false_accept_rate, fixed_weight, h2,
                       hoeffding_bound, min_length_for_error_floor,
                       min_sketch_len_for_budget, rate_bounds,
                       residual_entropy_bound, support_size, thresholds)
from .bitcore import (BitString, CapacityError, DimensionError,
                      ParameterError, SeededRng, hamming_distance,
                      hamming_weight, xor, zero_pad_prefix)
from .codes import (InversionError, LinearCode, bch_code, code_from_spec,
                    code_from_text, code_to_text, decode, encode,
                    invert_message, random_linear_code, syndrome)
from .experiments import (ExperimentConfig, run_complexity_experiment,
                          run_correctness_experiment,
                          run_false_accept_experiment, run_experiment,
                          run_lsh_experiment)
from .lsh import (ExceedanceResult, IndexVector, empirical_rv_distance,
                  exceedance_frequencies, expected_rv_distance,
                  gen_index_vector, rv_distance_samples, sample_bits,
                  similarity)
from .recover import RecoveryReport, recover_fixed, recover_sweep
from .sketch import (Sketch, SketchDebug, SketchFormatError, SketchParams,
                     dump_sketch, load_sketch, load_sketch_file, make_sketch,
                     param_violations, sample_error, save_sketch)

__version__ = "0.1.0"
