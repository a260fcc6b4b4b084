_start:
	moviw a0, -2147483649
