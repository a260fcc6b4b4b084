_start:
	fmv.d.x f0, f1
