"""Vectorized finite element matrix assembly on simplicial meshes.

The package builds weighted mass, stiffness and elastic stiffness matrices
with five interchangeable assembly strategies, supports arbitrary spatial
dimension for the scalar P1 case, coupled systems through interleaved
degrees of freedom, and mass matrices on higher-order node lattices.
"""

from .assembly import (
    SCALAR_DRIVERS,
    VECTOR_DRIVERS,
    ScalarAsVectorKernel,
    assemble_base,
    assemble_mass_pk,
    assemble_optv,
    assemble_optv1,
    assemble_optv2,
    assemble_optvs,
    assemble_vector_base,
    assemble_vector_optv,
    assemble_vector_optv2,
    assemble_vector_optvs,
)
from .errors import (
    CapacityError,
    DegenerateSimplexError,
    IndexRangeError,
    MatrixFormatError,
    MeshFormatError,
    MeshValidationError,
    NonCanonicalMatrixError,
    NonSymmetricKernelError,
    RangeGuardError,
    ShapeMismatchError,
    SimplexAsmError,
)
from .kernels import (
    ElasticKernel,
    ElasticTables,
    MassKernel,
    PkCoeffTable,
    PkMassKernel,
    StiffnessKernel,
    barycentric_moment,
    build_elastic_tables,
    compute_gradients,
    dot_mat_vec_g,
    elastic_kernel,
    mass_kernel,
    pk_mass_coeffs,
    stiffness_kernel,
)
from .mesh import (
    Mesh,
    PkMesh,
    build_pk_mesh,
    compute_volumes,
    generate_hypercube_mesh,
    multi_index_lattice,
    read_mesh,
    reference_gradients,
    write_mesh,
)
from .sparse import (
    SparseMatrix,
    TripletBatch,
    add,
    empty_matrix,
    max_abs,
    max_abs_diff,
    read_matrixmarket,
    sparse_from_triplets,
    transpose,
    write_matrixmarket,
)

__version__ = "0.1.0"
