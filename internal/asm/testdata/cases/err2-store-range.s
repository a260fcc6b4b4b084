_start:
	sd a0, -8193(sp)
