_start:
	call
