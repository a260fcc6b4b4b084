_start:
	fmv.x.d a0
