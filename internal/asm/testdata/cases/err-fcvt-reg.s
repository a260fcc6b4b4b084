_start:
	fcvt.d.l a0, a1
