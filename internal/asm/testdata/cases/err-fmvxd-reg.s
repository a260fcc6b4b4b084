_start:
	fmv.x.d f0, f1
