_start:
	cas a0, (t0)
