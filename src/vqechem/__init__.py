"""VQE toolkit for small-molecule electronic structure.

Pipeline: molecular integrals (built-in hydrogen STO-3G or FCIDUMP files)
-> second-quantized Hamiltonian -> Jordan-Wigner qubit Hamiltonian ->
statevector VQE with hardware-efficient or UCCSD circuits, checked against
an exact-diagonalization oracle.
"""

from .ansatz import ExcitationSet, build_hardware_efficient, build_uccsd, enumerate_excitations
from .exactdiag import GroundStateResult, ground_state_energy
from .fcidump import parse_fcidump, write_fcidump
from .fermions import FermionOperator, build_second_quantized, jordan_wigner
from .integrals import (
    AOIntegrals,
    MolecularIntegrals,
    Molecule,
    RhfResult,
    compute_ao_integrals,
    freeze_core,
    run_rhf,
    transform_to_mo,
)
from .measurement import (
    EnergyEstimate,
    MeasurementGroup,
    estimate_energy_sampled,
    group_commuting,
    grouping_report_csv,
)
from .optimize import (
    OptimizerConfig,
    VqeResult,
    run_vqe,
    simplex_minimize,
    spsa_minimize,
)
from .paulis import PauliString, QubitHamiltonian
from .simulator import (
    Circuit,
    Gate,
    Statevector,
    apply_circuit,
    expectation,
    prepare_hf,
)
from .workflows import (
    PesPoint,
    ScanManifest,
    ScanPoint,
    activation_energy,
    compare_curves,
    dissociation_energy,
    fit_equilibrium,
    run_scan,
    run_single_point,
    trace_csv,
)

__version__ = "0.1.0"
