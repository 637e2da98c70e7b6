"""Triangle-mesh data structures: CSR adjacency, containers, I/O, checks."""

from .csr import (
    CSRGraph,
    adjacency_from_triangles,
    edges_from_triangles,
    is_symmetric,
    mesh_topology,
    permute_csr,
)
from .io import (
    read_json,
    read_off,
    read_triangle,
    write_json,
    write_off,
    write_triangle,
)
from .trimesh import TriMesh, boundary_vertices_from_triangles
from .validate import MeshValidationError, mesh_issues, validate_mesh

__all__ = [
    "CSRGraph",
    "TriMesh",
    "MeshValidationError",
    "adjacency_from_triangles",
    "boundary_vertices_from_triangles",
    "edges_from_triangles",
    "is_symmetric",
    "mesh_issues",
    "mesh_topology",
    "permute_csr",
    "read_json",
    "read_off",
    "read_triangle",
    "validate_mesh",
    "write_json",
    "write_off",
    "write_triangle",
]
