let eps = 1e-9
