_start:
	moviw a0
