_start:
	fsd a0, 0(sp)
