_start:
	sd a0, 0(sp), 1
