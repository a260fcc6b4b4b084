_start:
	cas a0, a1, t0
