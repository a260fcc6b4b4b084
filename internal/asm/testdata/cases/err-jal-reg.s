_start:
	jal q, _start
