import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mixrobust import DesignConfig, build_run_plan


@pytest.fixture(scope="session", autouse=True)
def session_tempdir(tmp_path_factory):
    """The session's temporary files, its worker pools' included, go under
    pytest's base temp directory. A pool worker that dies, or that its pool
    ends because another died, leaves its external run's directory behind. A
    forkserver keeps the TMPDIR it started with, so this is set before any
    test can start one."""
    tmp = tmp_path_factory.mktemp("tmp")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TMPDIR", str(tmp))
        patch.setattr(tempfile, "tempdir", str(tmp))
        yield tmp


@pytest.fixture(scope="session")
def reference_instance_config():
    """The 3-class, two 2-level-covariate, 3-replicate instance."""
    return DesignConfig(m=3, covariate_levels=((1, 0), (1, 0)),
                        min_prop=0.01, replicates=3, seed=20260808)


@pytest.fixture(scope="session")
def reference_instance_plan(reference_instance_config):
    return build_run_plan(reference_instance_config)


@pytest.fixture(scope="session")
def reference_matrix_84():
    """84-row model matrix over the corrected cross array, 3 replicates."""
    from mixrobust import model_row
    from reference_tables import CROSS_ARRAY_28

    rows = [model_row((x1, x2, x3), (z1, z2))
            for (x1, x2, x3, z1, z2) in CROSS_ARRAY_28] * 3
    return np.array(rows)
