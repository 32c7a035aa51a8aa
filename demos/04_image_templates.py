# %% [markdown]
# # Codebook templates as images
#
# When inputs are images, each codebook column is itself an image: the
# "template" that bit adds to the reconstruction. This script renders a grid
# of originals, reconstructions, and all templates as a PGM file.
#
# Point it at an IDX digit-image file to use real digits; without one it
# synthesizes blob images so the demo stays self-contained.

# %%
import sys

import numpy as np

from genhash import Dataset, TrainConfig, read_mnist_idx, reconstruction_grid, train, write_pgm

SIDE = 16

if len(sys.argv) > 1:
    dataset = read_mnist_idx(sys.argv[1])
    side = int(np.sqrt(dataset.d))
    dataset = Dataset(dataset[:10_000], source=dataset.source)
else:
    # blobs: a bright disc at a random position on a dim background
    rng = np.random.default_rng(3)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    rows = []
    for _ in range(5000):
        cy, cx = rng.uniform(3, SIDE - 3, 2)
        r = rng.uniform(2.0, 4.0)
        img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
        rows.append(img.ravel())
    dataset = Dataset(np.asarray(rows), source="blobs")
    side = SIDE

centered = dataset.centered()
print(f"{dataset.n} images of {side}x{side}")

# %%
params, _ = train(centered, TrainConfig(steps=4000, bits=32, seed=1))

samples = centered[:8]
grid = reconstruction_grid(params, samples, (side, side))
write_pgm("templates.pgm", grid)
print(f"wrote templates.pgm ({grid.shape[1]}x{grid.shape[0]}):")
print("  row 1: originals, row 2: reconstructions, remaining rows: the 32 bit templates")
