_start:
	bgtz 1, _start
