"""Taylor-Fourier Hamiltonian algebra and a zero-frequency normal-form engine."""
