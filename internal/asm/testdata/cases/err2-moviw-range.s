_start:
	moviw a0, 0x100000000
