"""Synthetic corpora of free software packages (paper §2).

The GDN's initial content: "publicly redistributable software packages,
such as the GNU C compiler, Linux distributions and shareware".  The
generator produces packages with the §2 properties — one or more files,
a unique hierarchical name, potentially large — with log-normal-ish
size spread and deterministic contents.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List

__all__ = ["PackageSpec", "generate_corpus", "synthetic_file"]

_CATEGORIES = ["graphics", "editors", "devel", "net", "games", "science"]
_STEMS = ["gimp", "tetex", "gcc", "emacs", "vim", "mutt", "lynx", "gzip",
          "tar", "make", "perl", "python", "apache", "bind", "sendmail",
          "xfig", "gnuplot", "octave", "fetchmail", "screen"]


def synthetic_file(label: str, size: int) -> bytes:
    """Deterministic pseudo-content of a given size.

    A short digest-derived prefix keeps files distinguishable while the
    zero fill keeps generation cheap at megabyte scale.
    """
    prefix = hashlib.sha256(label.encode("utf-8")).digest()
    return prefix[:size] + b"\x00" * (size - len(prefix))


class PackageSpec:
    """A package to be published: name, files, derived totals."""

    def __init__(self, name: str, files: Dict[str, int]):
        self.name = name
        self.file_sizes = dict(files)

    @property
    def total_size(self) -> int:
        return sum(self.file_sizes.values())

    @property
    def largest_file(self) -> str:
        return max(sorted(self.file_sizes),
                   key=lambda path: self.file_sizes[path])

    def materialize(self) -> Dict[str, bytes]:
        """Generate the actual file contents."""
        return {path: synthetic_file("%s:%s" % (self.name, path), size)
                for path, size in self.file_sizes.items()}

    def __repr__(self) -> str:
        return ("PackageSpec(%s, %d files, %d bytes)"
                % (self.name, len(self.file_sizes), self.total_size))


#: A package holds 1 to ``2 * FILES_PER_PACKAGE - 1`` files.
FILES_PER_PACKAGE = 4
#: Shape (sigma of the underlying normal) of the log-normal file sizes.
SIZE_SIGMA = 1.2


def generate_corpus(count: int, rng: random.Random,
                    mean_file_size: int = 50_000) -> List[PackageSpec]:
    """``count`` packages with log-normal file sizes.

    Names combine real free-software stems with category paths, then
    fall back to systematic names, so small corpora look like the
    paper's examples (``/apps/graphics/gimp``) and large ones stay
    unique.
    """
    specs: List[PackageSpec] = []
    mu = math.log(mean_file_size)
    for index in range(count):
        if index < len(_STEMS):
            stem = _STEMS[index]
        else:
            stem = "pkg%04d" % index
        category = _CATEGORIES[index % len(_CATEGORIES)]
        name = "/apps/%s/%s" % (category, stem)
        file_count = max(1, 1 + rng.randrange(2 * FILES_PER_PACKAGE - 1))
        files: Dict[str, int] = {"README": 256 + rng.randrange(2048)}
        for file_index in range(file_count - 1):
            size = max(64, int(rng.lognormvariate(mu, SIZE_SIGMA)))
            files["data/part%02d" % file_index] = size
        specs.append(PackageSpec(name, files))
    return specs
