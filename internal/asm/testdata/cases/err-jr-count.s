_start:
	jr
