"""Word-addressed global memory layout.

The simulator uses a single flat, word-addressed global address space.
Buffers are carved out of it by a bump allocator; a word address maps to a
memory *channel* via the chip's critical patch size (see
:meth:`repro.chips.profile.HardwareProfile.channel`), which is the
geometry underlying the paper's patch-finding experiments.

The paper cannot control the physical distance between an application's
data and the stressing scratchpad (GPUs use virtual addressing); here the
allocator is deterministic, standing in for the stable-but-unknown
physical layout a given application gets on a given chip.  An optional
allocation ``offset`` lets experiments randomise the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidAccessError


@dataclass(frozen=True)
class Buffer:
    """A contiguous array of words inside the global address space."""

    name: str
    base: int
    size: int

    def addr(self, index: int) -> int:
        """Absolute word address of ``self[index]`` (bounds checked)."""
        if not 0 <= index < self.size:
            raise self.index_error(index)
        return self.base + index

    def index_error(self, index: int) -> InvalidAccessError:
        """The error for an access to ``self[index]`` out of bounds."""
        return InvalidAccessError(
            f"index {index} out of bounds for buffer "
            f"{self.name!r} of size {self.size}"
        )

    def __len__(self) -> int:
        return self.size


#: Words per default allocation boundary.  ``cudaMalloc`` guarantees at
#: least 256-byte alignment, i.e. 64 words — which is why distinct
#: buffers of real applications land in distinct patches.
CUDA_MALLOC_ALIGN = 64


class AddressSpace:
    """Bump allocator over the flat word-addressed global memory."""

    def __init__(self, offset: int = 0, default_align: int = 1):
        if offset < 0:
            raise ValueError("allocation offset must be non-negative")
        if default_align <= 0:
            raise ValueError("default alignment must be positive")
        self._next = offset
        self._default_align = default_align
        self._buffers: dict[str, Buffer] = {}

    def alloc(self, name: str, size: int, align: int | None = None) -> Buffer:
        """Allocate ``size`` words, optionally aligned to ``align`` words."""
        if align is None:
            align = self._default_align
        if size <= 0:
            raise ValueError(f"buffer size must be positive, got {size}")
        if align <= 0:
            raise ValueError(f"alignment must be positive, got {align}")
        align = max(align, self._default_align)
        if name in self._buffers:
            raise ValueError(f"buffer {name!r} already allocated")
        base = -(-self._next // align) * align
        buf = Buffer(name=name, base=base, size=size)
        self._next = base + size
        self._buffers[name] = buf
        return buf

    def buffer(self, name: str) -> Buffer:
        """Look up a previously allocated buffer by name."""
        try:
            return self._buffers[name]
        except KeyError:
            raise InvalidAccessError(f"no buffer named {name!r}") from None

    @property
    def words_used(self) -> int:
        """Total extent of the allocated address range, in words."""
        return self._next

    def buffers(self) -> list[Buffer]:
        """All allocated buffers, in allocation order."""
        return list(self._buffers.values())
