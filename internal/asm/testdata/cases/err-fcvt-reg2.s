_start:
	fcvt.l.d a0, a1
