"""One reader per input kind: every public function that takes a saliency
map, a point path or fixations reads it through ``salypath.types``, so a
wrong form raises the same error, naming the function that was called."""

import numpy as np
import pytest

from salypath import data, losses
from salypath import saliency_metrics as sm
from salypath import scanpath_metrics as spm
from salypath.errors import ContractError, DimensionError
from salypath.types import FixationSet

MAP = np.linspace(0.0, 1.0, 16).reshape(4, 4)
RANK3 = np.full((4, 4, 2), 0.5)
FIX = np.array([[1, 2]])
PATH = np.array([[0.2, 0.3], [0.7, 0.4], [0.5, 0.9]])
BAD_PATH = np.linspace(0.0, 1.0, 12).reshape(3, 4)  # reshape(-1, 2) would read 6 points

MAP_CALLS = {
    "auc_judd": lambda tmp: sm.auc_judd(RANK3, FIX),
    "auc_borji": lambda tmp: sm.auc_borji(RANK3, FIX, rng_seed=0),
    "nss": lambda tmp: sm.nss(RANK3, FIX),
    "cc": lambda tmp: sm.cc(RANK3, MAP),
    "sim": lambda tmp: sm.sim(RANK3, MAP),
    "kld": lambda tmp: sm.kld(RANK3, MAP),
    "nss_scanpath": lambda tmp: spm.nss_scanpath(PATH, RANK3),
    "congruency": lambda tmp: spm.congruency(PATH, RANK3),
    "kldiv": lambda tmp: losses.kldiv(RANK3, MAP),
    "mse_map": lambda tmp: losses.mse_map(RANK3, MAP),
    "nss_term": lambda tmp: losses.nss_term(RANK3, FIX),
    "saliency_loss": lambda tmp: losses.saliency_loss(RANK3, MAP),
    "write_pgm": lambda tmp: data.write_pgm(tmp / "m.pgm", RANK3),
    "resample_map": lambda tmp: data.resample_map(RANK3, 2, 2),
}
PATH_CALLS = {
    "multimatch": lambda tmp: spm.multimatch(BAD_PATH, PATH),
    "to_saccades": lambda tmp: spm.to_saccades(BAD_PATH),
    "nss_scanpath": lambda tmp: spm.nss_scanpath(BAD_PATH, MAP),
    "congruency": lambda tmp: spm.congruency(BAD_PATH, MAP),
    "scanpath_loss": lambda tmp: losses.scanpath_loss(BAD_PATH, PATH),
}
CASES = ([pytest.param(name, r"expected a \[H, W\] map", call, id=f"map-{name}")
          for name, call in MAP_CALLS.items()]
         + [pytest.param(name, r"expected \[N, 2\] points", call, id=f"path-{name}")
            for name, call in PATH_CALLS.items()])


@pytest.mark.parametrize("name, message, call", CASES)
def test_wrong_shape_raises_dimension_error_naming_the_function(tmp_path, name, message,
                                                                call):
    with pytest.raises(DimensionError, match=rf"^{name}: {message}"):
        call(tmp_path)
    assert not list(tmp_path.iterdir())  # nothing written


FIXATION_CALLS = {
    "auc_judd": sm.auc_judd,
    "auc_borji": lambda m, fix: sm.auc_borji(m, fix, rng_seed=0),
    "nss": sm.nss,
    "nss_term": losses.nss_term,
    "saliency_loss": lambda m, fix: losses.saliency_loss(m, m, fix),
}


@pytest.mark.parametrize("name", FIXATION_CALLS)
def test_fixations_read_as_integer_points_on_the_map_grid(name):
    call = FIXATION_CALLS[name]
    mask = np.zeros((4, 2))  # a float [H, 2] indicator, not pixel indices
    mask[1, 0] = 1.0
    with pytest.raises(DimensionError, match=rf"^{name}: expected \[K, 2\] integer"):
        call(MAP, mask)
    with pytest.raises(DimensionError, match=rf"^{name}: fixations on grid \(5, 4\)"):
        call(MAP, FixationSet(FIX, (5, 4)))
    with pytest.raises(ContractError, match=rf"^{name}: empty fixation set"):
        call(MAP, FixationSet(np.zeros((0, 2), np.int64), (4, 4)))


@pytest.mark.parametrize("name", FIXATION_CALLS)
def test_off_map_pixels_raise_naming_the_function(name):
    call = FIXATION_CALLS[name]
    with pytest.raises(ContractError, match=rf"^{name}: row out of bounds for height 4"):
        call(MAP, np.array([[9, 0]]))
    with pytest.raises(ContractError, match=rf"^{name}: col out of bounds for width 4"):
        call(MAP, np.array([[1, 2], [0, -1]]))
    with pytest.raises(ContractError, match=r"^FixationSet: row out of bounds for height 4"):
        FixationSet(np.array([[4, 0]]), (4, 4))
