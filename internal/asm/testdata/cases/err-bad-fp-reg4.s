_start:
	fld f+1, 0(a0)
