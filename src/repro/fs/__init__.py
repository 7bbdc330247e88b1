"""MemFSS: the scavenging in-memory distributed file system (paper §III)."""

from .capacity import (CapacityLedger, PressureStats, pressure_stats,
                       select_targets)
from .striping import (DEFAULT_STRIPE_SIZE, StripeSpan, join_payload,
                       split_payload, stripe_count, stripe_digest_array,
                       stripe_key, stripe_spans)
from .metadata import (FileMeta, PathError, dir_key, file_meta_key,
                       normalize_path, parent_dir)
from .placement import (ClassSpec, CodedAssignment, CodingSets,
                        PlacementMap, PlannerStats, StripePlan,
                        assign_coded, assign_coded_scalar,
                        clear_placement_caches, planner_stats)
from .erasure import (group_layout, parity_key, storage_overhead, xor_parity)
from .memfss import (FileExists, FileNotFound, FsError, MemFSS, NotADir)
from .memfs import build_memfs
from .posix import FileHandle, HandleClosed, MountPoint
from .scavenger import RepairDaemon, ScavengingManager

__all__ = [
    "DEFAULT_STRIPE_SIZE", "StripeSpan", "stripe_count", "stripe_spans",
    "stripe_key", "stripe_digest_array", "split_payload", "join_payload",
    "FileMeta", "PathError", "normalize_path", "parent_dir",
    "file_meta_key", "dir_key",
    "ClassSpec", "PlacementMap", "StripePlan", "PlannerStats",
    "planner_stats", "clear_placement_caches",
    "CodingSets", "CodedAssignment", "assign_coded", "assign_coded_scalar",
    "CapacityLedger", "PressureStats", "pressure_stats", "select_targets",
    "group_layout", "parity_key", "xor_parity", "storage_overhead",
    "MemFSS", "FsError", "FileNotFound", "FileExists", "NotADir",
    "build_memfs",
    "MountPoint", "FileHandle", "HandleClosed",
    "ScavengingManager", "RepairDaemon",
]

