_start:
	cas a0, a1, 8(t0)
