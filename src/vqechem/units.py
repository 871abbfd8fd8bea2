"""Physical unit conversions.

Single source of truth for every conversion factor used in the package.
Energies are Hartree internally; geometry may enter in Angstrom or Bohr
but is stored in Bohr.
"""

HARTREE_TO_KCALMOL = 627.509474
ANGSTROM_TO_BOHR = 1.8897259886
MILLIHARTREE_PER_HARTREE = 1000.0
