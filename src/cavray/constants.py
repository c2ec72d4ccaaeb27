"""Physical constants (CODATA, SI). Hard-coded to 9 significant digits."""

SPEED_OF_LIGHT = 2.99792458e8     # m/s
BOLTZMANN = 1.38064900e-23        # J/K
PLANCK = 6.62607015e-34           # J s
AVOGADRO = 6.02214076e23          # 1/mol
